package store

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// policyState is one policy's full record: metadata plus every version.
type policyState struct {
	Meta     Policy    `json:"meta"`
	Versions []Version `json:"versions"`
}

// core is the shared in-memory state machine both backends apply
// mutations to. It is not goroutine-safe; callers hold their own lock.
type core struct {
	policies map[string]*policyState
	nextID   int
}

func newCore() *core {
	return &core{policies: map[string]*policyState{}}
}

// applyCreate installs a new policy. When id is empty a fresh ID is
// assigned; otherwise (WAL replay) the given ID is installed verbatim and
// the ID counter is advanced past it.
func (c *core) applyCreate(id, name string, v Version) (Policy, error) {
	if id == "" {
		c.nextID++
		id = fmt.Sprintf("p%d", c.nextID)
	} else {
		var n int
		if _, err := fmt.Sscanf(id, "p%d", &n); err == nil && n > c.nextID {
			c.nextID = n
		}
		if _, ok := c.policies[id]; ok {
			return Policy{}, fmt.Errorf("store: duplicate policy ID %q", id)
		}
	}
	if name == "" {
		name = v.Company
	}
	v.N = 1
	meta := Policy{
		ID: id, Name: name, Company: v.Company,
		Created: v.Created, Updated: v.Created, Versions: 1,
	}
	c.policies[id] = &policyState{Meta: meta, Versions: []Version{v}}
	return meta, nil
}

// applyAppend appends v as the next version iff the policy currently has
// expect versions. expect < 0 skips the check (WAL replay).
func (c *core) applyAppend(id string, expect int, v Version) (Policy, error) {
	st, ok := c.policies[id]
	if !ok {
		return Policy{}, fmt.Errorf("%w: policy %q", ErrNotFound, id)
	}
	if expect >= 0 && st.Meta.Versions != expect {
		return Policy{}, fmt.Errorf("%w: policy %q at version %d, expected %d",
			ErrConflict, id, st.Meta.Versions, expect)
	}
	v.N = st.Meta.Versions + 1
	st.Versions = append(st.Versions, v)
	st.Meta.Versions = v.N
	st.Meta.Company = v.Company
	st.Meta.Updated = v.Created
	return st.Meta, nil
}

func (c *core) get(id string) (Policy, error) {
	st, ok := c.policies[id]
	if !ok {
		return Policy{}, fmt.Errorf("%w: policy %q", ErrNotFound, id)
	}
	return st.Meta, nil
}

func (c *core) list() []Policy {
	out := make([]Policy, 0, len(c.policies))
	for _, st := range c.policies {
		out = append(out, st.Meta)
	}
	sortByID(out, func(p Policy) string { return p.ID })
	return out
}

// sortByID puts xs in canonical policy order: numeric for the "p<N>" IDs
// the store assigns, lexicographic otherwise and as the tiebreak. Each ID
// is parsed once, not once per comparison.
func sortByID[T any](xs []T, id func(T) string) {
	type keyed struct {
		id  string
		n   int
		num bool
		x   T
	}
	ks := make([]keyed, len(xs))
	for i, x := range xs {
		ks[i] = keyed{id: id(x), x: x}
		c, _ := fmt.Sscanf(ks[i].id, "p%d", &ks[i].n)
		ks[i].num = c == 1
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := &ks[i], &ks[j]
		if a.num && b.num && a.n != b.n {
			return a.n < b.n
		}
		return a.id < b.id
	})
	for i := range ks {
		xs[i] = ks[i].x
	}
}

func (c *core) versions(id string) ([]VersionMeta, error) {
	st, ok := c.policies[id]
	if !ok {
		return nil, fmt.Errorf("%w: policy %q", ErrNotFound, id)
	}
	out := make([]VersionMeta, len(st.Versions))
	for i, v := range st.Versions {
		out[i] = v.VersionMeta
	}
	return out, nil
}

func (c *core) version(id string, n int) (Version, error) {
	st, ok := c.policies[id]
	if !ok {
		return Version{}, fmt.Errorf("%w: policy %q", ErrNotFound, id)
	}
	if n < 1 || n > len(st.Versions) {
		return Version{}, fmt.Errorf("%w: policy %q has no version %d", ErrNotFound, id, n)
	}
	return st.Versions[n-1], nil
}

func (c *core) counts() (policies, versions int) {
	for _, st := range c.policies {
		versions += len(st.Versions)
	}
	return len(c.policies), versions
}

// Mem is the in-memory PolicyStore: the default for tests and servers
// running without a -data directory. State dies with the process.
type Mem struct {
	opts Options
	mu   sync.RWMutex
	c    *core
}

// NewMem returns an empty in-memory store.
func NewMem(opts Options) *Mem {
	m := &Mem{opts: opts, c: newCore()}
	m.registerGauges()
	return m
}

func (m *Mem) registerGauges() {
	m.opts.Obs.GaugeFunc("quagmire_store_policies", func() float64 {
		m.mu.RLock()
		defer m.mu.RUnlock()
		p, _ := m.c.counts()
		return float64(p)
	})
	m.opts.Obs.GaugeFunc("quagmire_store_versions", func() float64 {
		m.mu.RLock()
		defer m.mu.RUnlock()
		_, v := m.c.counts()
		return float64(v)
	})
}

// Create implements PolicyStore.
func (m *Mem) Create(name string, v Version) (Policy, error) {
	defer m.opts.observe("create", time.Now())
	v.Created = m.opts.clock()()
	v.Bytes = len(v.Payload)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c.applyCreate("", name, v)
}

// AppendBatch implements PolicyStore. The memory backend has no log to
// amortize; the batch is simply applied atomically under one lock hold.
func (m *Mem) AppendBatch(entries []BatchEntry) ([]Policy, error) {
	defer m.opts.observe("append_batch", time.Now())
	if len(entries) == 0 {
		return nil, nil
	}
	now := m.opts.clock()()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Policy, len(entries))
	for i, e := range entries {
		v := e.Version
		v.Created = now
		v.Bytes = len(v.Payload)
		meta, err := m.c.applyCreate("", e.Name, v)
		if err != nil {
			return out[:i], err
		}
		out[i] = meta
	}
	return out, nil
}

// Append implements PolicyStore.
func (m *Mem) Append(id string, expect int, v Version) (Policy, error) {
	defer m.opts.observe("append", time.Now())
	if expect < 0 {
		return Policy{}, fmt.Errorf("store: negative expected version %d", expect)
	}
	v.Created = m.opts.clock()()
	v.Bytes = len(v.Payload)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c.applyAppend(id, expect, v)
}

// Get implements PolicyStore.
func (m *Mem) Get(id string) (Policy, error) {
	defer m.opts.observe("get", time.Now())
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.c.get(id)
}

// List implements PolicyStore.
func (m *Mem) List() ([]Policy, error) {
	defer m.opts.observe("list", time.Now())
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.c.list(), nil
}

// Versions implements PolicyStore.
func (m *Mem) Versions(id string) ([]VersionMeta, error) {
	defer m.opts.observe("versions", time.Now())
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.c.versions(id)
}

// Version implements PolicyStore: metadata only, Payload nil.
func (m *Mem) Version(id string, n int) (Version, error) {
	defer m.opts.observe("version", time.Now())
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, err := m.c.version(id, n)
	v.Payload, v.ref = nil, nil
	return v, err
}

// LoadPayload implements PolicyStore: the memory backend always holds
// payloads inline.
func (m *Mem) LoadPayload(id string, n int) ([]byte, error) {
	defer m.opts.observe("load_payload", time.Now())
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, err := m.c.version(id, n)
	if err != nil {
		return nil, err
	}
	return v.Payload, nil
}

// Health implements PolicyStore.
func (m *Mem) Health() Health {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, v := m.c.counts()
	return Health{Backend: "memory", Policies: p, Versions: v, Writable: true}
}

// Close implements PolicyStore; a no-op for the memory backend.
func (m *Mem) Close() error { return nil }
