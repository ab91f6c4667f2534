package server

// The engine cache, the background warmer, and corruption quarantine.
//
// The store is the only index of what exists. Every read asks it for a
// policy's latest version N and renders that version's stored metadata,
// so no read mixes two versions, and a follower's view advances with its
// store's seq with no hook in between. Query engines live in one cache
// keyed by (policy ID, version number): a policy's latest version holds a
// slot that is never evicted, while superseded and pinned versions share a
// bound of versionCacheSize entries. A cell builds its *core.Analysis at
// most once, on first demand: the first reader loads and decodes the
// stored payload (concurrent first readers wait on the same build) and
// every later reader gets the cached engine. A writer installs the
// analysis it just built under (id, N+1) once the store accepts it; a
// reader that gets there first builds that engine from the payload.
// Stored versions are immutable, so a cell is never invalidated; only a
// follower's re-bootstrap, which can change the bytes behind an (id, n),
// empties the cache.
//
// Boot touches only metadata: recovery indexes each stored policy's
// latest version as an unbuilt cell, so boot-to-ready is independent of
// policy count, and a bounded warmer pool builds them in ID order so
// steady-state traffic rarely sees a cold engine.
//
// A payload that fails to decode aborts nothing: the failure is latched
// in its cell as quarantine. The policy serves 503 with the reason, list
// and get mark it, /healthz reports degraded, and the
// quagmire_policies_quarantined gauge counts it while it is the policy's
// latest version; every healthy policy serves normally. Quarantine clears
// when a PUT re-analyzes the policy from fresh text and supersedes the
// poisoned version (see handleUpdatePolicy's repair path).

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// Metric names of the recovery/quarantine surface.
const (
	metricQuarantined   = "quagmire_policies_quarantined"
	metricColdStart     = "quagmire_engine_cold_start_seconds"
	metricWarmPending   = "quagmire_recovery_warm_pending"
	metricEngineBuilds  = "quagmire_engine_builds_total"
	metricVersionHits   = "quagmire_version_engine_cache_hits_total"
	metricVersionMisses = "quagmire_version_engine_cache_misses_total"
)

// RecoveryOptions configures how stored policies come back at startup:
// always as unbuilt cells, optionally filled by the background warmer.
type RecoveryOptions struct {
	// WarmWorkers sizes the background warmer pool that builds recovered
	// engines after boot; 0 selects DefaultWarmWorkers, negative disables
	// background warming (engines build strictly on first query).
	WarmWorkers int
}

// DefaultWarmWorkers is the warmer pool size when unset.
const DefaultWarmWorkers = 2

func (r RecoveryOptions) warmWorkers() int {
	switch {
	case r.WarmWorkers == 0:
		return DefaultWarmWorkers
	case r.WarmWorkers < 0:
		return 0
	default:
		return r.WarmWorkers
	}
}

// versionCacheSize bounds the cache's superseded and pinned versions: a
// pinned-version /check workload typically cycles through a handful of
// versions per policy, and each entry holds a full decoded analysis.
const versionCacheSize = 32

// engineCell is the engine slot of one (policy, version). Its analysis is
// either supplied ready (create/update install the one they just built)
// or built once on first demand from the store's payload, and never
// changes after that, so readers use it without holding any lock.
type engineCell struct {
	id string
	n  int

	// mu serializes the one build; built latches its outcome (analysis or
	// quarantine error) forever.
	mu       sync.Mutex
	built    bool
	analysis *core.Analysis
	err      error

	// Guarded by engineCache.mu: pending counts the cell in the
	// warm-pending gauge (indexed at boot, not yet built), quarantined in
	// the quarantine gauge.
	pending, quarantined bool
}

type engineKey struct {
	id string
	n  int
}

// engineCache holds the server's engines, keyed by (policy, version).
type engineCache struct {
	reg *obs.Registry

	mu     sync.Mutex
	latest map[string]*engineCell    // each policy's latest version; never evicted
	older  map[engineKey]*engineCell // superseded and pinned versions
	order  []engineKey               // LRU order of older; the front is evicted first
}

func newEngineCache(reg *obs.Registry) *engineCache {
	return &engineCache{reg: reg, latest: map[string]*engineCell{}, older: map[engineKey]*engineCell{}}
}

// cell returns the cell of version n of policy id, whose latest stored
// version the caller read as latest. A resident latest cell of version n
// is reused. Otherwise version n == latest takes the policy's latest slot
// from the older version it supersedes, and any other version (a pinned
// one, or a reader whose latest the slot has already moved past) goes
// through the bounded LRU.
func (ec *engineCache) cell(id string, n, latest int) *engineCell {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	cur := ec.latest[id]
	switch {
	case cur != nil && cur.n == n:
		return cur
	case n == latest && (cur == nil || cur.n < n):
		cell := &engineCell{id: id, n: n}
		ec.installLocked(cell)
		return cell
	}
	key := engineKey{id: id, n: n}
	if cell := ec.older[key]; cell != nil {
		ec.reg.Counter(metricVersionHits).Inc()
		for i, k := range ec.order {
			if k == key {
				ec.order = append(append(ec.order[:i], ec.order[i+1:]...), key)
				break
			}
		}
		return cell
	}
	ec.reg.Counter(metricVersionMisses).Inc()
	cell := &engineCell{id: id, n: n}
	ec.older[key] = cell
	ec.order = append(ec.order, key)
	if len(ec.order) > versionCacheSize {
		delete(ec.older, ec.order[0])
		ec.order = ec.order[1:]
	}
	return cell
}

// install makes cell its policy's latest slot unless the slot already
// holds that version or a newer one.
func (ec *engineCache) install(cell *engineCell) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.installLocked(cell)
}

func (ec *engineCache) installLocked(cell *engineCell) {
	if cur := ec.latest[cell.id]; cur != nil {
		if cur.n >= cell.n {
			return
		}
		ec.release(cur)
	}
	ec.latest[cell.id] = cell
}

// supersede drops policy id's latest cell if it is older than version n.
func (ec *engineCache) supersede(id string, n int) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if cur := ec.latest[id]; cur != nil && cur.n < n {
		ec.release(cur)
		delete(ec.latest, id)
	}
}

// reset drops every cell.
func (ec *engineCache) reset() {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	for _, cell := range ec.latest {
		ec.release(cell)
	}
	ec.latest = map[string]*engineCell{}
	ec.older = map[engineKey]*engineCell{}
	ec.order = nil
}

// release is the one path by which a cell leaves its policy's latest
// slot: it takes back what the cell counted in the gauges. Callers hold
// ec.mu.
func (ec *engineCache) release(cell *engineCell) {
	if cell.quarantined {
		cell.quarantined = false
		ec.reg.Gauge(metricQuarantined).Add(-1)
	}
	if cell.pending {
		cell.pending = false
		ec.reg.Gauge(metricWarmPending).Add(-1)
	}
}

// settle accounts for a finished build: the cell leaves the warm-pending
// gauge, and a failed build that still holds its policy's latest slot
// enters the quarantine gauge.
func (ec *engineCache) settle(cell *engineCell) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if cell.pending {
		cell.pending = false
		ec.reg.Gauge(metricWarmPending).Add(-1)
	}
	if cell.err != nil && ec.latest[cell.id] == cell {
		cell.quarantined = true
		ec.reg.Gauge(metricQuarantined).Add(1)
	}
}

// quarantined reports whether version n is policy id's latest slot and
// failed to build. It never triggers a build.
func (ec *engineCache) quarantined(id string, n int) bool {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	cur := ec.latest[id]
	return cur != nil && cur.n == n && cur.quarantined
}

// engine returns the analysis of version n of policy p, building it on
// first use. source labels the cold-start histogram ("query", "warmer",
// "corpus", "version").
func (s *Server) engine(p store.Policy, n int, source string) (*core.Analysis, error) {
	return s.engines.cell(p.ID, n, p.Versions).get(s, source)
}

// get returns the cell's analysis, building it on first call: the payload
// is fetched from the store, decoded, and an engine attached. Concurrent
// first callers block on the same build and all see its one outcome. A
// failed build is latched as quarantine: every later get returns it
// without retrying (a corrupt payload does not fix itself; repair goes
// through the PUT path, which stores a new version). A store that does
// not hold the version, or is closed, latches nothing: that is a follower
// between two histories, not a corrupt payload.
func (c *engineCell) get(s *Server, source string) (*core.Analysis, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.built {
		return c.analysis, c.err
	}
	start := time.Now()
	payload, err := s.store.LoadPayload(c.id, c.n)
	if errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrClosed) {
		return nil, fmt.Errorf("policy %s version %d: %w", c.id, c.n, err)
	}
	var a *core.Analysis
	if err == nil {
		a, err = core.DecodeAnalysisEnvelope(payload)
	}
	reg := s.pipeline.Obs()
	if err != nil {
		c.err = fmt.Errorf("policy %s version %d quarantined: %w", c.id, c.n, err)
		if s.logger != nil {
			s.logger.Printf("server: %v", c.err)
		}
	} else {
		s.pipeline.BuildEngine(a)
		c.analysis = a
		reg.Counter(metricEngineBuilds, "source", source).Inc()
		reg.Histogram(metricColdStart, obs.TimeBuckets, "source", source).ObserveSince(start)
	}
	c.built = true
	s.engines.settle(c)
	return c.analysis, c.err
}

// startWarmer launches the background pool that builds each recovered
// policy's latest engine in ID order. It owns s.warmStop/s.warmDone; Close
// cancels it and waits.
func (s *Server) startWarmer(ids []string, workers int) {
	s.warmDone = make(chan struct{})
	s.warmStop = make(chan struct{})
	if workers > len(ids) {
		workers = len(ids)
	}
	jobs := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range jobs {
				// The build warms the engine, so the first query builds
				// nothing. A failed build quarantines the version, which
				// reports it to every later reader.
				if p, err := s.store.Get(id); err == nil {
					_, _ = s.engine(p, p.Versions, "warmer")
				}
			}
		}()
	}
	go func() {
		defer close(s.warmDone)
		start := time.Now()
		for _, id := range ids {
			select {
			case jobs <- id:
			case <-s.warmStop:
				close(jobs)
				wg.Wait()
				return
			}
		}
		close(jobs)
		wg.Wait()
		s.pipeline.Obs().Gauge("quagmire_store_recovery_seconds", "phase", "warm").Set(time.Since(start).Seconds())
		if s.logger != nil {
			s.logger.Printf("server: background warmer finished %d policies in %s", len(ids), time.Since(start).Round(time.Millisecond))
		}
	}()
}

// Close stops the background warmer and waits for in-flight engine builds
// it owns to finish. Wire it into graceful drain after the HTTP server
// has shut down; it is safe to call when no warmer ever started, and
// idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.warmStop != nil {
			close(s.warmStop)
			<-s.warmDone
		}
	})
}
