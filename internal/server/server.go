// Package server exposes the pipeline as a JSON HTTP API: policies are
// uploaded and analyzed, queried for extraction statistics, edges and
// vague conditions, verified against natural-language compliance queries,
// and updated incrementally across versions. Policies and their full
// version history live in a store.PolicyStore — with the disk backend the
// server recovers every policy across restarts, lazily: each query engine
// builds on first demand, a background warmer fills the rest, and a
// corrupt payload quarantines one policy instead of refusing boot (see
// lazy.go). A raw SMT-LIB solving endpoint exposes the built-in solver. The server is
// self-contained over net/http (Go 1.22 pattern routing) with request
// logging, body-size limits and JSON error envelopes.
package server

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/report"
	"github.com/privacy-quagmire/quagmire/internal/segment"
	"github.com/privacy-quagmire/quagmire/internal/smt"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// MaxBodyBytes caps request bodies (policies can be large but bounded).
const MaxBodyBytes = 4 << 20

// Server is the HTTP API server. Create with New.
type Server struct {
	pipeline *core.Pipeline
	logger   *log.Logger
	store    store.PolicyStore
	timeouts Timeouts
	corpus   CorpusConfig

	// replica, when non-nil, marks this server a read-only follower:
	// writes 403 with a pointer at the primary, /healthz gains the
	// replication status section (replicate.go).
	replica *ReplicaOptions

	// adm admission-controls solver-backed endpoints (queue, then 429).
	adm *admission

	// testHookSolverAdmitted, when non-nil, runs inside the admitted
	// section of every solver-backed endpoint, before the real handler.
	// Tests use it to simulate slow or panicking solvers; production
	// leaves it nil.
	testHookSolverAdmitted func(r *http.Request)

	// engines caches query engines by (policy, version) (lazy.go). Reads
	// learn which versions exist from the store, never from the cache.
	engines *engineCache

	// Background warmer lifecycle (lazy.go): warmStop cancels it, warmDone
	// closes when it exits, Close is idempotent through closeOnce.
	warmStop  chan struct{}
	warmDone  chan struct{}
	closeOnce sync.Once
}

// Options configures the server.
type Options struct {
	// Pipeline runs the analyses; required.
	Pipeline *core.Pipeline
	// Store persists policies and version history; nil selects a fresh
	// in-memory store (state dies with the process).
	Store store.PolicyStore
	// Logger receives request logs; nil disables logging.
	Logger *log.Logger
	// Timeouts sets the per-endpoint-class request deadlines; zero fields
	// select defaults (reads 2s, solver/analysis 30s), negative disables.
	Timeouts Timeouts
	// Admission bounds concurrent solver-backed requests (query,
	// verify-batch, explore, solve): a bounded semaphore plus a short
	// wait queue, shedding excess with 429 + Retry-After. The zero value
	// selects defaults; MaxConcurrent < 0 disables.
	Admission AdmissionConfig
	// Recovery sizes the background warmer that builds stored policies'
	// engines after boot (see lazy.go).
	Recovery RecoveryOptions
	// Corpus bounds the cross-policy fan-out endpoints (corpus.go); zero
	// fields select defaults.
	Corpus CorpusConfig
	// Replica marks this server a read-only follower serving replicated
	// state (replicate.go); nil is a normal writable primary.
	Replica *ReplicaOptions
}

// New constructs a server. When the store already holds policies (a
// disk-backed store after a restart) their latest versions are indexed as
// unbuilt engine cells: boot touches only metadata, each policy's engine
// builds on first query (or via the background warmer), and a payload
// that fails to decode quarantines that one policy instead of refusing
// boot.
func New(opts Options) (*Server, error) {
	if opts.Pipeline == nil {
		return nil, fmt.Errorf("server: Options.Pipeline is required")
	}
	st := opts.Store
	if st == nil {
		st = store.NewMem(store.Options{Obs: opts.Pipeline.Obs()})
	}
	srv := &Server{
		pipeline: opts.Pipeline,
		logger:   opts.Logger,
		store:    st,
		timeouts: opts.Timeouts.withDefaults(),
		corpus:   opts.Corpus.withDefaults(),
		replica:  opts.Replica,
		adm:      newAdmission(opts.Admission, opts.Pipeline.Obs()),
		engines:  newEngineCache(opts.Pipeline.Obs()),
	}
	if err := srv.recoverEngines(opts.Recovery); err != nil {
		return nil, err
	}
	return srv, nil
}

// recoverEngines indexes the store's policies for the engine cache. Store
// recovery proper (snapshot load + WAL replay) already happened when the
// store was opened; this layer installs an unbuilt cell for each policy's
// latest version — metadata only, no payload decode — and hands the ID
// list to the background warmer. A payload that fails to decode
// quarantines that one policy when its cell builds; recovery itself only
// fails when the store cannot be read at all.
func (s *Server) recoverEngines(rec RecoveryOptions) error {
	start := time.Now()
	pols, err := s.store.List()
	if err != nil {
		return fmt.Errorf("server: recover: %w", err)
	}
	reg := s.pipeline.Obs()
	reg.SetHelp(metricQuarantined, "Policies whose stored payload failed to decode; served as 503 until repaired.")
	reg.SetHelp(metricWarmPending, "Recovered policies whose engine is not yet built and indexed for questions.")
	reg.SetHelp(metricColdStart, "Time to decode a stored payload and build its engine, by trigger source.")
	ids := make([]string, 0, len(pols))
	for _, p := range pols {
		s.engines.install(&engineCell{id: p.ID, n: p.Versions, pending: true})
		ids = append(ids, p.ID)
	}
	if len(pols) == 0 {
		return nil
	}
	reg.Gauge(metricWarmPending).Set(float64(len(pols)))
	reg.Gauge("quagmire_store_recovery_seconds", "phase", "index").Set(time.Since(start).Seconds())
	if s.logger != nil {
		s.logger.Printf("server: indexed %d policies from store in %s (lazy rebuild)",
			len(pols), time.Since(start).Round(time.Millisecond))
	}
	if workers := rec.warmWorkers(); workers > 0 {
		s.startWarmer(ids, workers)
	}
	return nil
}

// Handler returns the routed HTTP handler with middleware applied. The
// observability routes — Prometheus text on /metrics, expvar JSON on
// /debug/vars, the pprof suite under /debug/pprof/ — are mounted here on
// the server's own mux, not on http.DefaultServeMux, so binding the API
// to a port never accidentally exposes another library's debug handlers.
//
// API routes are registered per lifecycle class: cheap reads get the Read
// deadline, analysis writes (create/update) get the Solve deadline, and
// solver-backed endpoints additionally pass admission control. The
// observability routes stay bare — a deadline on /debug/pprof/profile
// would truncate profiles, and operators must be able to scrape a server
// that is saturated or wedged.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", s.readClass(s.handleHealth))
	// Replication endpoints mount only when the store can ship state, and
	// stay bare like the observability routes: the WAL tail is a long-lived
	// stream a read deadline would sever, and a follower must be able to
	// catch up from a primary saturated with the very load it is there to
	// absorb.
	if rep, ok := s.store.(store.Replicator); ok {
		mux.HandleFunc("GET /v1/replicate/snapshot", s.handleReplicateSnapshot(rep))
		mux.HandleFunc("GET /v1/replicate/wal", s.handleReplicateWAL(rep))
	}
	mux.HandleFunc("POST /v1/policies", s.analyzeClass(s.writeGuard(s.handleCreatePolicy)))
	mux.HandleFunc("GET /v1/policies", s.readClass(s.handleListPolicies))
	mux.HandleFunc("GET /v1/policies/{id}", s.readClass(s.handleGetPolicy))
	mux.HandleFunc("PUT /v1/policies/{id}", s.analyzeClass(s.writeGuard(s.handleUpdatePolicy)))
	mux.HandleFunc("GET /v1/policies/{id}/versions", s.readClass(s.handleVersions))
	mux.HandleFunc("GET /v1/policies/{id}/versions/{n}", s.readClass(s.handleVersion))
	mux.HandleFunc("GET /v1/policies/{id}/diff", s.readClass(s.handleDiff))
	mux.HandleFunc("GET /v1/policies/{id}/edges", s.readClass(s.handleEdges))
	mux.HandleFunc("GET /v1/policies/{id}/vague", s.readClass(s.handleVague))
	mux.HandleFunc("POST /v1/policies/{id}/query", s.solverClass(s.handleQuery))
	mux.HandleFunc("POST /v1/policies/{id}/verify-batch", s.solverClass(s.handleVerifyBatch))
	mux.HandleFunc("POST /v1/policies/{id}/check", s.solverClass(s.handleCheck))
	mux.HandleFunc("POST /v1/policies/{id}/explore", s.solverClass(s.handleExplore))
	mux.HandleFunc("GET /v1/policies/{id}/report", s.readClass(s.handleReport))
	mux.HandleFunc("GET /v1/policies/{id}/dot", s.readClass(s.handleDOT))
	mux.HandleFunc("POST /v1/solve", s.solverClass(s.handleSolve))
	mux.HandleFunc("GET /v1/corpus/stats", s.solverClass(s.handleCorpusStats))
	mux.HandleFunc("POST /v1/corpus/query", s.solverClass(s.handleCorpusQuery))
	return s.withMiddleware(mux)
}

func (s *Server) withMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		func() {
			// Panic containment: one crashing handler must never take the
			// process (and every other in-flight request) down with it.
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				s.pipeline.Obs().Counter("quagmire_http_panics_total").Inc()
				if s.logger != nil {
					s.logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				}
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, "internal server error")
				}
			}()
			next.ServeHTTP(rec, r)
		}()
		reg := s.pipeline.Obs()
		reg.Counter("quagmire_http_requests_total", "code", strconv.Itoa(rec.status)).Inc()
		reg.Histogram("quagmire_http_request_seconds", obs.TimeBuckets).ObserveSince(start)
		if s.logger != nil {
			s.logger.Printf("%s %s %d %s", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Millisecond))
		}
	})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.pipeline.Obs().WritePrometheus(w)
}

// handleVars serves expvar's JSON: the variables the process publishes
// (cmdline, memstats) and this server's registry under "quagmire". The
// registry is read from the server, not published process-wide, so two
// servers in one process each show their own.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	snap, err := json.Marshal(s.pipeline.Obs().Snapshot())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	io.WriteString(w, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value)
	})
	fmt.Fprintf(w, "%q: %s\n}\n", "quagmire", snap)
}

// statusRecorder captures the response code for logging/metrics and
// whether anything was written yet — the panic handler can only
// substitute a 500 while the response is still unstarted.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional interfaces (Flusher, deadline control) through the recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// checkJSONContentType enforces application/json on bodied requests. A
// missing Content-Type is tolerated (curl without -H still works); an
// explicit non-JSON one is a client bug surfaced as 415 rather than a
// confusing JSON parse error.
func checkJSONContentType(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || mt != "application/json" {
		writeError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want application/json)", ct)
		return false
	}
	return true
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if !checkJSONContentType(w, r) {
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxBodyBytes)
			return false
		}
		if errors.Is(err, io.EOF) {
			writeError(w, http.StatusBadRequest, "empty request body")
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	// Drain whatever trails the decoded value (bounded by MaxBytesReader)
	// so the keep-alive connection is reusable.
	_, _ = io.Copy(io.Discard, r.Body)
	return true
}

// healthResponse is the GET /healthz payload: overall status plus the
// store's self-report (backend kind, record counts, WAL size, writability
// probe) and the quarantined-policy count. A store that cannot accept
// writes makes the whole server degraded with a 503 — a load balancer
// should drain it. Quarantined policies also report "degraded" but keep
// the 200: every healthy policy still serves, and the corrupt payload is
// in the store, so draining the instance would not help (its replacement
// would quarantine the same policy).
type healthResponse struct {
	Status      string       `json:"status"`
	Policies    int          `json:"policies"`
	Quarantined int          `json:"quarantined,omitempty"`
	Store       store.Health `json:"store"`
	// Replica reports replication status (lag, connection state) on a
	// follower; absent on a primary.
	Replica any `json:"replica,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.store.Health()
	q := int(s.pipeline.Obs().Gauge(metricQuarantined).Value())
	resp := healthResponse{Status: "ok", Policies: h.Policies, Quarantined: q, Store: h}
	if s.replica != nil && s.replica.Status != nil {
		resp.Replica = s.replica.Status()
	}
	code := http.StatusOK
	switch {
	case !h.OK():
		resp.Status = "degraded"
		code = http.StatusServiceUnavailable
	case q > 0:
		resp.Status = "degraded"
	}
	writeJSON(w, code, resp)
}

// createPolicyRequest is the POST /v1/policies body.
type createPolicyRequest struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// policyResponse is the common policy summary payload. Quarantined marks
// a policy whose latest stored payload failed to decode: metadata and
// stats still render (they come from the store's version metadata), but
// the analysis endpoints answer 503 until it is repaired.
type policyResponse struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	Company     string    `json:"company"`
	Created     time.Time `json:"created"`
	Updated     time.Time `json:"updated"`
	Versions    int       `json:"versions"`
	Nodes       int       `json:"nodes"`
	Edges       int       `json:"edges"`
	Entities    int       `json:"entities"`
	DataTypes   int       `json:"data_types"`
	Practices   int       `json:"practices"`
	Quarantined bool      `json:"quarantined,omitempty"`
}

// policyStatsJSON renders policy metadata plus the stored stats of the
// version it names — the form that needs no decoded analysis, so listing
// a corpus never forces engine builds.
func policyStatsJSON(p store.Policy, st store.VersionStats) policyResponse {
	return policyResponse{
		ID: p.ID, Name: p.Name, Company: p.Company,
		Created: p.Created, Updated: p.Updated, Versions: p.Versions,
		Nodes: st.Nodes, Edges: st.Edges, Entities: st.Entities,
		DataTypes: st.DataTypes, Practices: st.Practices,
	}
}

// renderPolicy renders a policy for list and get: the stored stats of the
// latest version its metadata names, marked quarantined when that
// version's engine failed to build.
func (s *Server) renderPolicy(p store.Policy) (policyResponse, error) {
	v, err := s.store.Version(p.ID, p.Versions)
	if err != nil {
		return policyResponse{}, err
	}
	resp := policyStatsJSON(p, v.Stats)
	resp.Quarantined = s.engines.quarantined(p.ID, p.Versions)
	return resp, nil
}

func (s *Server) handleCreatePolicy(w http.ResponseWriter, r *http.Request) {
	var req createPolicyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Text == "" {
		writeError(w, http.StatusBadRequest, "text is required")
		return
	}
	a, err := s.pipeline.Analyze(r.Context(), req.Text)
	if err != nil {
		s.writeComputeError(w, r, "analysis failed", err)
		return
	}
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode failed: %v", err)
		return
	}
	v := store.Version{
		VersionMeta: store.VersionMeta{Company: a.Extraction.Company, Stats: a.VersionStats()},
		Payload:     payload,
	}
	pol, err := s.store.Create(req.Name, v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store rejected policy: %v", err)
		return
	}
	s.engines.install(&engineCell{id: pol.ID, n: pol.Versions, built: true, analysis: a})
	writeJSON(w, http.StatusCreated, policyStatsJSON(pol, v.Stats))
}

// pageParams parses ?offset=&limit= (both optional, limit 0 = all).
// Returns ok=false with the 400 already written on malformed input.
func pageParams(w http.ResponseWriter, r *http.Request) (offset, limit int, ok bool) {
	parse := func(name string) (int, bool) {
		raw := r.URL.Query().Get(name)
		if raw == "" {
			return 0, true
		}
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid %s %q (want a non-negative integer)", name, raw)
			return 0, false
		}
		return n, true
	}
	if offset, ok = parse("offset"); !ok {
		return 0, 0, false
	}
	if limit, ok = parse("limit"); !ok {
		return 0, 0, false
	}
	return offset, limit, true
}

// handleListPolicies lists the corpus in deterministic store order with
// optional ?offset=&limit= pagination; X-Total-Count always carries the
// full corpus size.
func (s *Server) handleListPolicies(w http.ResponseWriter, r *http.Request) {
	offset, limit, ok := pageParams(w, r)
	if !ok {
		return
	}
	pols, err := s.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store list failed: %v", err)
		return
	}
	total := len(pols)
	if offset > total {
		offset = total
	}
	end := total
	if limit > 0 && offset+limit < total {
		end = offset + limit
	}
	out := make([]policyResponse, 0, end-offset)
	for _, p := range pols[offset:end] {
		resp, err := s.renderPolicy(p)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "store read failed: %v", err)
			return
		}
		out = append(out, resp)
	}
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	writeJSON(w, http.StatusOK, out)
}

// policySnapshot is a consistent read of one policy: store metadata plus
// the analysis of the latest version it names.
type policySnapshot struct {
	meta     store.Policy
	analysis *core.Analysis
}

// lookupMeta reads the policy's metadata from the store — where every
// per-policy handler starts — without triggering an engine build. Writes
// the 404 itself when absent.
func (s *Server) lookupMeta(w http.ResponseWriter, r *http.Request) (store.Policy, bool) {
	id := r.PathValue("id")
	meta, err := s.store.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "policy %q not found", id)
		return store.Policy{}, false
	}
	return meta, true
}

// lookup returns a consistent snapshot for handlers that need the
// analysis, building the engine on first demand (the lazy-recovery cold
// path). A published analysis is never mutated, so handlers read the
// snapshot without a lock while a concurrent update stores the next
// version. A quarantined policy answers 503 with the decode failure as
// the reason.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (policySnapshot, bool) {
	meta, ok := s.lookupMeta(w, r)
	if !ok {
		return policySnapshot{}, false
	}
	a, err := s.engine(meta, meta.Versions, "query")
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return policySnapshot{}, false
	}
	return policySnapshot{meta: meta, analysis: a}, true
}

// handleGetPolicy serves metadata + stats; like the list, it never forces
// an engine to build and renders quarantined policies with the marker.
func (s *Server) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	meta, ok := s.lookupMeta(w, r)
	if !ok {
		return
	}
	resp, err := s.renderPolicy(meta)
	if err != nil {
		storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// updatePolicyRequest is the PUT /v1/policies/{id} body.
type updatePolicyRequest struct {
	Text string `json:"text"`
}

// updatePolicyResponse reports the update: the statement diff and what
// the new version's graph changed from the previous one's.
type updatePolicyResponse struct {
	Policy          policyResponse `json:"policy"`
	SegmentsKept    int            `json:"segments_kept"`
	SegmentsAdded   int            `json:"segments_added"`
	SegmentsRemoved int            `json:"segments_removed"`
	EdgesAdded      int            `json:"edges_added"`
	EdgesRemoved    int            `json:"edges_removed"`
	NewTerms        int            `json:"new_terms"`
}

func (s *Server) handleUpdatePolicy(w http.ResponseWriter, r *http.Request) {
	meta, ok := s.lookupMeta(w, r)
	if !ok {
		return
	}
	var req updatePolicyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Text == "" {
		writeError(w, http.StatusBadRequest, "text is required")
		return
	}
	// Update re-extracts only the statements the new text changed and
	// builds the graph and hierarchies from the whole new extraction, as
	// a create does, so the stored version answers as a fresh analysis
	// of its text would. It never mutates the previous analysis, so
	// concurrent readers keep querying the old version while the new one
	// is built. The store's compare-and-swap (against the version this
	// update was computed from) rejects concurrent updates rather than
	// silently dropping edits.
	//
	// PUT is also the repair path for a quarantined policy: with no
	// decodable previous analysis to diff against, the text is re-analyzed
	// from scratch (diff stats zero) and the healthy new version
	// supersedes the poisoned one.
	prev, qerr := s.engine(meta, meta.Versions, "query")
	var (
		a    *core.Analysis
		diff segment.Diff
		st   kg.UpdateStats
		err  error
	)
	if qerr != nil {
		a, err = s.pipeline.Analyze(r.Context(), req.Text)
	} else {
		a, diff, st, err = s.pipeline.Update(r.Context(), prev, req.Text)
	}
	if err != nil {
		s.writeComputeError(w, r, "update failed", err)
		return
	}
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode failed: %v", err)
		return
	}
	v := store.Version{
		VersionMeta: store.VersionMeta{
			Company: a.Extraction.Company,
			Stats:   a.VersionStats(),
			Diff: store.DiffStats{
				SegmentsKept:    len(diff.Kept),
				SegmentsAdded:   len(diff.Added),
				SegmentsRemoved: len(diff.Removed),
				EdgesAdded:      st.EdgesAdded,
				EdgesRemoved:    st.EdgesRemoved,
				NewTerms:        st.NewTerms,
			},
		},
		Payload: payload,
	}
	pol, serr := s.store.Append(meta.ID, meta.Versions, v)
	switch {
	case errors.Is(serr, store.ErrConflict):
		writeError(w, http.StatusConflict, "policy %q was updated concurrently; retry", meta.ID)
		return
	case errors.Is(serr, store.ErrNotFound):
		writeError(w, http.StatusNotFound, "policy %q not found", meta.ID)
		return
	case serr != nil:
		writeError(w, http.StatusInternalServerError, "store rejected update: %v", serr)
		return
	}
	// Installing the new version releases the one it supersedes, and with
	// it any quarantine that version counted.
	s.engines.install(&engineCell{id: pol.ID, n: pol.Versions, built: true, analysis: a})
	if qerr != nil && s.logger != nil {
		s.logger.Printf("server: policy %s repaired by update (version %d)", pol.ID, pol.Versions)
	}
	writeJSON(w, http.StatusOK, updatePolicyResponse{
		Policy:          policyStatsJSON(pol, v.Stats),
		SegmentsKept:    len(diff.Kept),
		SegmentsAdded:   len(diff.Added),
		SegmentsRemoved: len(diff.Removed),
		EdgesAdded:      st.EdgesAdded,
		EdgesRemoved:    st.EdgesRemoved,
		NewTerms:        st.NewTerms,
	})
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", q)
			return
		}
		limit = n
	}
	edges := e.analysis.KG.ED.Edges()
	if limit > 0 && limit < len(edges) {
		edges = edges[:limit]
	}
	type edgeJSON struct {
		Text       string `json:"text"`
		Condition  string `json:"condition,omitempty"`
		Permission string `json:"permission,omitempty"`
		Other      string `json:"other,omitempty"`
	}
	out := make([]edgeJSON, len(edges))
	for i, ed := range edges {
		out[i] = edgeJSON{Text: ed.String(), Condition: ed.Condition, Permission: ed.Permission, Other: ed.Other}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleVague(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	counts := map[string]int{}
	for _, p := range e.analysis.Extraction.Practices {
		for _, v := range p.VagueTerms {
			counts[v]++
		}
	}
	type vagueJSON struct {
		Term        string `json:"term"`
		Occurrences int    `json:"occurrences"`
	}
	out := make([]vagueJSON, 0, len(counts))
	for term, n := range counts {
		out = append(out, vagueJSON{Term: term, Occurrences: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Occurrences != out[j].Occurrences {
			return out[i].Occurrences > out[j].Occurrences
		}
		return out[i].Term < out[j].Term
	})
	writeJSON(w, http.StatusOK, out)
}

// queryRequest is the POST /v1/policies/{id}/query body.
type queryRequest struct {
	Question      string `json:"question"`
	IncludeScript bool   `json:"include_script,omitempty"`
}

// queryResponse is the verification result payload.
type queryResponse struct {
	Verdict       query.Verdict     `json:"verdict"`
	Cause         string            `json:"cause,omitempty"`
	ConditionalOn []string          `json:"conditional_on,omitempty"`
	Placeholders  []string          `json:"placeholders,omitempty"`
	Translations  map[string]string `json:"translations,omitempty"`
	MatchedEdges  []string          `json:"matched_edges,omitempty"`
	FormulaSize   int               `json:"formula_size"`
	Script        string            `json:"script,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Question == "" {
		writeError(w, http.StatusBadRequest, "question is required")
		return
	}
	res, err := e.analysis.Engine.Ask(r.Context(), req.Question)
	if err != nil {
		s.writeComputeError(w, r, "query failed", err)
		return
	}
	resp := queryResponse{
		Verdict:       res.Verdict,
		Cause:         res.Cause,
		ConditionalOn: res.ConditionalOn,
		Placeholders:  res.Placeholders,
		Translations:  res.Translations,
		MatchedEdges:  res.MatchedEdges,
		FormulaSize:   res.FormulaSize,
	}
	if req.IncludeScript {
		resp.Script = res.Script
	}
	writeJSON(w, http.StatusOK, resp)
}

// verifyBatchRequest is the POST /v1/policies/{id}/verify-batch body.
type verifyBatchRequest struct {
	Questions []string `json:"questions"`
}

// batchItemResponse is one query's outcome within a batch; exactly one of
// Error or the result fields is populated.
type batchItemResponse struct {
	Question      string        `json:"question"`
	Verdict       query.Verdict `json:"verdict,omitempty"`
	Cause         string        `json:"cause,omitempty"`
	ConditionalOn []string      `json:"conditional_on,omitempty"`
	Placeholders  []string      `json:"placeholders,omitempty"`
	MatchedEdges  []string      `json:"matched_edges,omitempty"`
	Error         string        `json:"error,omitempty"`
}

// verifyBatchResponse reports the whole batch plus the pipeline's shared
// SMT result cache counters after the run.
type verifyBatchResponse struct {
	Results  []batchItemResponse `json:"results"`
	SMTCache smt.CacheStats      `json:"smt_cache"`
}

// MaxBatchQuestions caps one verify-batch request.
const MaxBatchQuestions = 64

func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req verifyBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Questions) == 0 {
		writeError(w, http.StatusBadRequest, "questions is required")
		return
	}
	if len(req.Questions) > MaxBatchQuestions {
		writeError(w, http.StatusBadRequest, "too many questions: %d (max %d)", len(req.Questions), MaxBatchQuestions)
		return
	}
	for i, q := range req.Questions {
		if q == "" {
			writeError(w, http.StatusBadRequest, "questions[%d] is empty", i)
			return
		}
	}
	items, err := e.analysis.Engine.AskBatch(r.Context(), req.Questions)
	if err != nil {
		s.writeComputeError(w, r, "batch verification failed", err)
		return
	}
	resp := verifyBatchResponse{
		Results:  make([]batchItemResponse, len(items)),
		SMTCache: s.pipeline.SMTCacheStats(),
	}
	for i, it := range items {
		out := batchItemResponse{Question: it.Query}
		if it.Err != nil {
			out.Error = it.Err.Error()
		} else {
			out.Verdict = it.Result.Verdict
			out.Cause = it.Result.Cause
			out.ConditionalOn = it.Result.ConditionalOn
			out.Placeholders = it.Result.Placeholders
			out.MatchedEdges = it.Result.MatchedEdges
		}
		resp.Results[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

// exploreRequest is the POST /v1/policies/{id}/explore body.
type exploreRequest struct {
	Question string `json:"question"`
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req exploreRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Question == "" {
		writeError(w, http.StatusBadRequest, "question is required")
		return
	}
	exp, err := e.analysis.Engine.Explore(r.Context(), req.Question)
	if err != nil {
		s.writeComputeError(w, r, "exploration failed", err)
		return
	}
	writeJSON(w, http.StatusOK, exp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	md := report.Render(e.analysis, report.Options{IncludeHierarchy: r.URL.Query().Get("hierarchy") == "1"})
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	_, _ = io.WriteString(w, md)
}

func (s *Server) handleDOT(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var out string
	switch kind := r.URL.Query().Get("kind"); kind {
	case "", "graph":
		out = e.analysis.KG.ED.DOT(e.meta.Company + " practices")
	case "data":
		out = e.analysis.KG.DataH.DOT(e.meta.Company + " data hierarchy")
	case "entity":
		out = e.analysis.KG.EntityH.DOT(e.meta.Company + " entity hierarchy")
	default:
		writeError(w, http.StatusBadRequest, "unknown kind %q (graph|data|entity)", kind)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	_, _ = io.WriteString(w, out)
}

// solveRequest is the POST /v1/solve body.
type solveRequest struct {
	Script string `json:"script"`
}

// solveResponse is one check-sat result.
type solveResponse struct {
	Status       string   `json:"status"`
	Reason       string   `json:"reason,omitempty"`
	Placeholders []string `json:"placeholders,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Script == "" {
		writeError(w, http.StatusBadRequest, "script is required")
		return
	}
	results, err := smt.RunScriptCtx(r.Context(), req.Script, s.pipeline.Limits())
	if err != nil {
		s.writeComputeError(w, r, "solve failed", err)
		return
	}
	out := make([]solveResponse, len(results))
	for i, res := range results {
		out[i] = solveResponse{Status: res.Status.String(), Reason: res.Reason, Placeholders: res.Placeholders}
	}
	writeJSON(w, http.StatusOK, out)
}
