package server

// Lazy engine cells, the background warmer, and corruption quarantine.
//
// Recovery used to decode every stored policy and rebuild its query
// engine inside New — minutes of downtime at corpus scale, and one
// undecodable payload refused boot entirely. Recovery now indexes the
// store into engineCells (version number + stored stats, no payload
// touched), so boot-to-ready is independent of policy count. A cell
// builds its *core.Analysis exactly once, on first demand: the first
// reader pays the decode (concurrent first readers wait on the same
// build, singleflight-style) and every later reader gets the cached
// engine. A bounded warmer pool walks the cells in ID order after boot so
// steady-state traffic rarely sees a cold cell.
//
// A payload that fails to decode no longer aborts anything: the cell is
// quarantined — the error is cached, the policy serves 503 with the
// reason, the list marks it, /healthz reports degraded, and the
// quagmire_policies_quarantined gauge counts it — while every healthy
// policy serves normally. Quarantine clears when a PUT re-analyzes the
// policy from fresh text (see handleUpdatePolicy's repair path).
//
// The same cell type backs the bounded version-engine cache that serves
// /check requests pinned to historical versions, so a pinned suite run
// pays one decode per (policy, version), not one per request.

import (
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
// always as lazy cells, optionally filled by the background warmer.
type RecoveryOptions struct {
	// WarmWorkers sizes the background warmer pool that populates lazy
	// cells after boot; 0 selects DefaultWarmWorkers, negative disables
	// background warming (cells build strictly on first query).
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

// engineCell is one policy-version's engine slot. The stored version
// number and its metadata stats are fixed at install; the analysis is
// either supplied ready (create/update install the one they just built)
// or built once on first demand from the store's payload. Cells are
// immutable from the outside — an update installs a new cell, never
// mutates one — so a snapshot taken from a cell stays consistent without
// holding any lock.
type engineCell struct {
	id      string
	version int
	// stats mirrors the stored VersionMeta.Stats so list/get can render a
	// policy without forcing a build (and can still render a quarantined
	// one, whose payload will never decode).
	stats store.VersionStats
	// recovered marks cells created by recovery indexing; the warm-pending
	// gauge tracks only those.
	recovered bool
	// transient marks version-cache cells: their build failures are
	// reported per request, not counted in the quarantine gauge (the live
	// policy still serves; only one historical version is unreadable).
	transient bool

	// mu serializes the one build; built latches the outcome (analysis or
	// quarantine error) forever.
	mu       sync.Mutex
	built    bool
	analysis *core.Analysis
	err      error
}

// newReadyCell wraps an analysis the server just built (create/update).
func newReadyCell(id string, version int, a *core.Analysis) *engineCell {
	return &engineCell{
		id: id, version: version,
		stats: versionStats(a),
		built: true, analysis: a,
	}
}

// newLazyCell indexes a stored version without touching its payload.
func newLazyCell(id string, version int, stats store.VersionStats) *engineCell {
	return &engineCell{id: id, version: version, stats: stats, recovered: true}
}

// newStatsCell indexes a stored version without touching its payload and
// without recovery accounting: replication installs these continuously as
// records apply, so they must not count toward the warm-pending gauge the
// boot-time warmer drains (see replicate.go).
func newStatsCell(id string, version int, stats store.VersionStats) *engineCell {
	return &engineCell{id: id, version: version, stats: stats}
}

// get returns the cell's analysis, building it on first call: the payload
// is fetched from the store, decoded, and an engine attached. Concurrent
// first callers block on the same build and all see its one outcome. A
// failed build quarantines the cell — the error is latched and every
// later get returns it without retrying (a corrupt payload does not fix
// itself; repair goes through the PUT path, which installs a new cell).
// source labels the cold-start histogram ("query", "warmer", "version").
func (c *engineCell) get(s *Server, source string) (*core.Analysis, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.built {
		return c.analysis, c.err
	}
	start := time.Now()
	a, err := c.build(s)
	c.built = true
	reg := s.pipeline.Obs()
	if err != nil {
		c.err = fmt.Errorf("policy %s version %d quarantined: %w", c.id, c.version, err)
		if !c.transient {
			reg.Gauge(metricQuarantined).Add(1)
		}
		if s.logger != nil {
			s.logger.Printf("server: %v", c.err)
		}
	} else {
		c.analysis = a
		reg.Counter(metricEngineBuilds, "source", source).Inc()
		reg.Histogram(metricColdStart, obs.TimeBuckets, "source", source).ObserveSince(start)
	}
	if c.recovered {
		reg.Gauge(metricWarmPending).Add(-1)
	}
	return c.analysis, c.err
}

func (c *engineCell) build(s *Server) (*core.Analysis, error) {
	payload, err := s.store.LoadPayload(c.id, c.version)
	if err != nil {
		return nil, err
	}
	a, err := core.DecodeAnalysisEnvelope(payload)
	if err != nil {
		return nil, err
	}
	s.pipeline.BuildEngine(a)
	return a, nil
}

// peek reports the cell's state without triggering a build: the analysis
// when built and healthy, the quarantine reason when built and poisoned,
// neither when still cold.
func (c *engineCell) peek() (a *core.Analysis, quarantined error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.analysis, c.err
}

// startWarmer launches the background pool that populates lazy cells in
// ID order. It owns s.warmStop/s.warmDone; Close cancels it and waits.
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
				s.mu.RLock()
				cell := s.live[id]
				s.mu.RUnlock()
				if cell == nil {
					continue // deleted/raced; nothing to warm
				}
				// The cell build warms the engine, so the first query
				// builds nothing. A failed build quarantines the cell,
				// which reports it to every later reader.
				_, _ = cell.get(s, "warmer")
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

// Close stops the background warmer and waits for in-flight cell builds
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

// versionEngineCacheSize bounds the historical version-engine cache: a
// pinned-version /check workload typically cycles through a handful of
// versions per policy, and each entry holds a full decoded analysis.
const versionEngineCacheSize = 32

// versionEngines is a small bounded LRU of engines for historical
// (non-latest) stored versions, shared by every /check request that pins
// one. Versions are immutable, so entries never need invalidation — only
// eviction. Reusing engineCell gives pinned checks the same singleflight
// decode and quarantine semantics as the live path.
type versionEngines struct {
	mu    sync.Mutex
	max   int
	cells map[string]*engineCell
	order []string // LRU order; front is the eviction candidate
}

func newVersionEngines(max int) *versionEngines {
	return &versionEngines{max: max, cells: map[string]*engineCell{}}
}

// analysis returns the cached analysis for id@n, decoding it on first
// use. The cell builds outside the cache lock, so a slow decode never
// blocks hits on other versions.
func (ve *versionEngines) analysis(s *Server, id string, n int) (*core.Analysis, error) {
	key := fmt.Sprintf("%s@%d", id, n)
	reg := s.pipeline.Obs()
	ve.mu.Lock()
	cell := ve.cells[key]
	if cell != nil {
		reg.Counter(metricVersionHits).Inc()
		ve.touch(key)
	} else {
		reg.Counter(metricVersionMisses).Inc()
		cell = &engineCell{id: id, version: n, transient: true}
		ve.cells[key] = cell
		ve.order = append(ve.order, key)
		for len(ve.order) > ve.max {
			evict := ve.order[0]
			ve.order = ve.order[1:]
			delete(ve.cells, evict)
		}
	}
	ve.mu.Unlock()
	a, err := cell.get(s, "version")
	if err != nil {
		// A version that cannot decode should not occupy an LRU slot — it
		// is reported per request, not served-around like a live policy.
		ve.mu.Lock()
		if ve.cells[key] == cell {
			delete(ve.cells, key)
			for i, k := range ve.order {
				if k == key {
					ve.order = append(ve.order[:i], ve.order[i+1:]...)
					break
				}
			}
		}
		ve.mu.Unlock()
	}
	return a, err
}

// touch moves key to the back of the LRU order. Callers hold ve.mu.
func (ve *versionEngines) touch(key string) {
	for i, k := range ve.order {
		if k == key {
			ve.order = append(append(ve.order[:i], ve.order[i+1:]...), key)
			return
		}
	}
}
