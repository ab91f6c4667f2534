package server

// Request-lifecycle layer: per-endpoint-class deadlines, admission
// control for solver-backed endpoints, and panic containment. The paper's
// headline negative result — SMT verification routinely resource-outs —
// means every solver-backed request is a potentially unbounded
// computation; this file is what keeps one pathological formula from
// pinning the whole process. Deadlines propagate through r.Context() into
// the existing solver cancellation plumbing (CheckSatCtx, RunScriptCtx
// and RunCachedCtx poll the context inside the instantiation and
// DPLL(T) loops), so an expired request stops burning CPU promptly.

import (
	"context"
	"errors"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/obs"
)

// Default per-class request deadlines. Cheap reads touch only in-memory
// snapshots and the store's metadata; solver-class requests run
// extraction, graph builds or SMT solving and get a far larger budget.
const (
	DefaultReadTimeout  = 2 * time.Second
	DefaultSolveTimeout = 30 * time.Second
)

// Timeouts are the per-endpoint-class request deadlines. Zero fields
// select the defaults; negative fields disable the deadline for that
// class (tests and offline batch tooling).
type Timeouts struct {
	// Read bounds cheap read endpoints (list/get/versions/edges/report...).
	Read time.Duration
	// Solve bounds solver-backed and analysis endpoints (query,
	// verify-batch, explore, solve, create, update).
	Solve time.Duration
}

func normalizeTimeout(d, def time.Duration) time.Duration {
	switch {
	case d == 0:
		return def
	case d < 0:
		return 0
	default:
		return d
	}
}

func (t Timeouts) withDefaults() Timeouts {
	t.Read = normalizeTimeout(t.Read, DefaultReadTimeout)
	t.Solve = normalizeTimeout(t.Solve, DefaultSolveTimeout)
	return t
}

// AdmissionConfig bounds concurrent solver-backed requests. A bounded
// semaphore admits up to MaxConcurrent requests; up to MaxQueue more wait
// at most QueueWait for a slot; everything beyond that is shed
// immediately with 429 + Retry-After. Zero fields select defaults;
// MaxConcurrent < 0 disables admission control entirely.
type AdmissionConfig struct {
	// MaxConcurrent is the number of solver-backed requests allowed to run
	// simultaneously. 0 selects max(2, GOMAXPROCS); negative disables.
	MaxConcurrent int
	// MaxQueue is the number of requests allowed to wait for a slot.
	// 0 selects 8×MaxConcurrent; negative means no queue (shed at once).
	MaxQueue int
	// QueueWait is the longest a queued request waits before being shed.
	// 0 selects 2 seconds.
	QueueWait time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = max(2, runtime.GOMAXPROCS(0))
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueWait == 0 {
		c.QueueWait = 2 * time.Second
	}
	return c
}

// admission is the runtime state of the solver-endpoint limiter.
type admission struct {
	cfg      AdmissionConfig
	sem      chan struct{}
	inflight atomic.Int64
	queued   atomic.Int64
	reg      *obs.Registry
}

func newAdmission(cfg AdmissionConfig, reg *obs.Registry) *admission {
	cfg = cfg.withDefaults()
	if cfg.MaxConcurrent < 0 {
		return nil
	}
	reg.SetHelp("quagmire_http_solver_inflight", "Solver-backed requests currently executing.")
	reg.SetHelp("quagmire_http_solver_inflight_peak", "High watermark of concurrently executing solver-backed requests.")
	reg.SetHelp("quagmire_http_solver_queue_depth", "Solver-backed requests currently waiting for an execution slot.")
	reg.SetHelp("quagmire_http_solver_queue_depth_peak", "High watermark of the solver admission queue.")
	reg.SetHelp("quagmire_http_shed_total", "Solver-backed requests shed with 429, by reason.")
	reg.SetHelp("quagmire_http_solver_queue_wait_seconds", "Time admitted requests spent queued for a solver slot.")
	return &admission{
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxConcurrent),
		reg: reg,
	}
}

// admit tries to reserve an execution slot for r. On success it returns
// the release func the caller must defer; on failure it has already
// written the 429 (or deadline) response and returns ok=false.
func (a *admission) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case a.sem <- struct{}{}:
		return a.acquired(), true
	default:
	}
	// All slots busy: join the bounded wait queue or shed immediately.
	// Gauges move by deltas (Add is a CAS accumulate), never Set — two
	// concurrent Sets can finish out of order and strand a stale value.
	if n := a.queued.Add(1); int(n) > a.cfg.MaxQueue {
		a.queued.Add(-1)
		a.shed(w, "queue_full")
		return nil, false
	} else {
		a.reg.Gauge("quagmire_http_solver_queue_depth").Add(1)
		a.reg.Gauge("quagmire_http_solver_queue_depth_peak").SetMax(float64(n))
	}
	defer func() {
		a.queued.Add(-1)
		a.reg.Gauge("quagmire_http_solver_queue_depth").Add(-1)
	}()
	start := time.Now()
	timer := time.NewTimer(a.cfg.QueueWait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		a.reg.Histogram("quagmire_http_solver_queue_wait_seconds", obs.TimeBuckets).ObserveSince(start)
		return a.acquired(), true
	case <-timer.C:
		a.shed(w, "timeout")
		return nil, false
	case <-r.Context().Done():
		// The request's own deadline (or the client) gave up while queued.
		a.shed(w, "deadline")
		return nil, false
	}
}

func (a *admission) acquired() func() {
	n := a.inflight.Add(1)
	a.reg.Gauge("quagmire_http_solver_inflight").Add(1)
	a.reg.Gauge("quagmire_http_solver_inflight_peak").SetMax(float64(n))
	return func() {
		<-a.sem
		a.inflight.Add(-1)
		a.reg.Gauge("quagmire_http_solver_inflight").Add(-1)
	}
}

// shed writes the 429 envelope with a Retry-After hint sized to the queue
// wait — by then at least one queued request has either run or been shed,
// so capacity has turned over.
func (a *admission) shed(w http.ResponseWriter, reason string) {
	a.reg.Counter("quagmire_http_shed_total", "reason", reason).Inc()
	retry := int(math.Ceil(a.cfg.QueueWait.Seconds()))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, "solver capacity exhausted (%s); retry later", reason)
}

// timed wraps next with a request deadline that flows through
// r.Context() into the pipeline and solver. d <= 0 disables.
func timed(d time.Duration, next http.HandlerFunc) http.HandlerFunc {
	if d <= 0 {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next(w, r.WithContext(ctx))
	}
}

// readClass wraps a cheap read handler with the read deadline.
func (s *Server) readClass(next http.HandlerFunc) http.HandlerFunc {
	return timed(s.timeouts.Read, next)
}

// analyzeClass wraps the extraction-heavy create/update handlers with the
// solver deadline (analysis runs the LLM + graph build, not the solver,
// but shares its cost profile). These endpoints are not admission
// controlled; the deadline and body-size cap bound them.
func (s *Server) analyzeClass(next http.HandlerFunc) http.HandlerFunc {
	return timed(s.timeouts.Solve, next)
}

// solverClass wraps a solver-backed handler with the solver deadline and
// admission control. The deadline covers queue wait too: a request that
// spends its whole budget queued is shed, never run.
func (s *Server) solverClass(next http.HandlerFunc) http.HandlerFunc {
	h := func(w http.ResponseWriter, r *http.Request) {
		if s.adm != nil {
			release, ok := s.adm.admit(w, r)
			if !ok {
				return
			}
			defer release()
		}
		if hook := s.testHookSolverAdmitted; hook != nil {
			hook(r)
		}
		next(w, r)
	}
	return timed(s.timeouts.Solve, h)
}

// writeComputeError maps a pipeline/solver failure onto the error
// envelope. A request whose deadline elapsed gets 504 so callers can tell
// "too slow under current limits — retry with more budget" apart from
// "semantically invalid" (422).
func (s *Server) writeComputeError(w http.ResponseWriter, r *http.Request, what string, err error) {
	if r.Context().Err() != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		s.pipeline.Obs().Counter("quagmire_http_deadline_exceeded_total").Inc()
		writeError(w, http.StatusGatewayTimeout, "%s: request deadline exceeded", what)
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "%s: %v", what, err)
}
