package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// durations is a mutex-guarded latency sample.
type durations struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *durations) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *durations) reset() {
	s.mu.Lock()
	s.d = nil
	s.mu.Unlock()
}

func (s *durations) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.d...)
}

// replicatedStore is what the server needs from a store to mount the
// replication endpoints; *store.Disk and *replica.Follower both are one.
type replicatedStore interface {
	store.PolicyStore
	store.Replicator
}

// storeWrap times every PolicyStore call from outside the store and
// forwards the Replicator surface untouched, so a server over it still
// serves /v1/replicate/* to a follower.
type storeWrap struct {
	inner replicatedStore
	tr    *tracer

	appends, batches, reads durations
	writes                  atomic.Int64
	payloadBytes            atomic.Int64

	// onAck, when set, runs after every successful Append with the
	// primary's sequence number read right after Append returned.
	onAck func(seq uint64)

	// Write amplification accounting (trace runs only, amp != nil).
	amp *ampMeter
}

// ampMeter estimates bytes the store writes per acknowledged payload byte:
// WAL growth observed through the wal-bytes gauge, plus the size of every
// snapshot a compaction wrote. A write that triggers compaction resets
// the WAL, so its own record is estimated from the WAL/payload ratio seen
// so far. mu serializes writes with the gauge reads around them.
type ampMeter struct {
	mu             sync.Mutex
	reg            *obs.Registry
	dir            string
	walWritten     int64
	snapWritten    int64
	plainWAL       int64
	plainPayload   int64
	compactPayload int64
}

func (m *ampMeter) wal() int64 {
	return int64(m.reg.Snapshot().Gauges["quagmire_store_wal_bytes"])
}

func (m *ampMeter) snaps() uint64 {
	return m.reg.Counter("quagmire_store_snapshots_total").Value()
}

// measure runs one write and attributes the bytes it caused.
func (m *ampMeter) measure(payload int64, write func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	w0, s0 := m.wal(), m.snaps()
	if err := write(); err != nil {
		return err
	}
	w1, s1 := m.wal(), m.snaps()
	if s1 == s0 {
		m.walWritten += w1 - w0
		m.plainWAL += w1 - w0
		m.plainPayload += payload
		return nil
	}
	m.compactPayload += payload
	if fi, err := os.Stat(filepath.Join(m.dir, "snapshot.v2")); err == nil {
		m.snapWritten += fi.Size() * int64(s1-s0)
	}
	m.walWritten += w1
	return nil
}

// writtenBytes is the WAL plus snapshot byte estimate.
func (m *ampMeter) writtenBytes() float64 {
	ratio := 1.0
	if m.plainPayload > 0 {
		ratio = float64(m.plainWAL) / float64(m.plainPayload)
	}
	return float64(m.walWritten+m.snapWritten) + ratio*float64(m.compactPayload)
}

func newStoreWrap(inner replicatedStore, tr *tracer) *storeWrap {
	return &storeWrap{inner: inner, tr: tr}
}

func (s *storeWrap) span(name string) func() {
	_, end := s.tr.start(context.Background(), "store", name)
	return end
}

func (s *storeWrap) write(payload int64, fn func() error) error {
	if s.amp != nil {
		return s.amp.measure(payload, fn)
	}
	return fn()
}

func (s *storeWrap) Create(name string, v store.Version) (store.Policy, error) {
	defer s.span("create")()
	var p store.Policy
	err := s.write(int64(len(v.Payload)), func() (err error) {
		p, err = s.inner.Create(name, v)
		return err
	})
	if err == nil {
		s.writes.Add(1)
		s.payloadBytes.Add(int64(len(v.Payload)))
	}
	return p, err
}

func (s *storeWrap) AppendBatch(entries []store.BatchEntry) ([]store.Policy, error) {
	defer s.span("append_batch")()
	var n int64
	for _, e := range entries {
		n += int64(len(e.Version.Payload))
	}
	start := time.Now()
	var out []store.Policy
	err := s.write(n, func() (err error) {
		out, err = s.inner.AppendBatch(entries)
		return err
	})
	if err == nil {
		s.batches.add(time.Since(start))
		s.writes.Add(1)
		s.payloadBytes.Add(n)
	}
	return out, err
}

func (s *storeWrap) Append(id string, expect int, v store.Version) (store.Policy, error) {
	defer s.span("append")()
	start := time.Now()
	var p store.Policy
	err := s.write(int64(len(v.Payload)), func() (err error) {
		p, err = s.inner.Append(id, expect, v)
		return err
	})
	if err == nil {
		s.appends.add(time.Since(start))
		s.writes.Add(1)
		s.payloadBytes.Add(int64(len(v.Payload)))
		if s.onAck != nil {
			s.onAck(s.inner.Seq())
		}
	}
	return p, err
}

func (s *storeWrap) read(name string) func() {
	end := s.span(name)
	start := time.Now()
	return func() {
		s.reads.add(time.Since(start))
		end()
	}
}

func (s *storeWrap) Get(id string) (store.Policy, error) {
	defer s.read("get")()
	return s.inner.Get(id)
}

func (s *storeWrap) List() ([]store.Policy, error) {
	defer s.read("list")()
	return s.inner.List()
}

func (s *storeWrap) Versions(id string) ([]store.VersionMeta, error) {
	defer s.read("versions")()
	return s.inner.Versions(id)
}

func (s *storeWrap) Version(id string, n int) (store.Version, error) {
	defer s.read("version")()
	return s.inner.Version(id, n)
}

func (s *storeWrap) LoadPayload(id string, n int) ([]byte, error) {
	defer s.span("load_payload")()
	return s.inner.LoadPayload(id, n)
}

func (s *storeWrap) Health() store.Health { return s.inner.Health() }
func (s *storeWrap) Close() error         { return s.inner.Close() }

func (s *storeWrap) SnapshotTo(w io.Writer, started func(seq uint64)) (uint64, error) {
	return s.inner.SnapshotTo(w, started)
}

func (s *storeWrap) ReplayFrom(seq uint64, fn func(store.Record) error) error {
	return s.inner.ReplayFrom(seq, fn)
}

func (s *storeWrap) WaitSeq(ctx context.Context, after uint64) (uint64, error) {
	return s.inner.WaitSeq(ctx, after)
}

func (s *storeWrap) Seq() uint64 { return s.inner.Seq() }

// llmWrap counts and times the completions passing through it. The
// pipeline's client is llmWrap(CachingClient(llmWrap(Sim))): the outer
// wrapper sees every call, the inner one only cache misses.
type llmWrap struct {
	inner llm.Client
	tr    *tracer
	name  string
	calls atomic.Int64
	nanos atomic.Int64
}

func (c *llmWrap) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	ctx, end := c.tr.start(ctx, "llm", c.name+":"+string(req.Task))
	defer end()
	start := time.Now()
	resp, err := c.inner.Complete(ctx, req)
	c.nanos.Add(int64(time.Since(start)))
	c.calls.Add(1)
	return resp, err
}
