package server

// Lazy-recovery tests: corruption quarantine, differential equivalence of
// on-demand and warmed cells, warmer build-once semantics, and the
// pinned-version engine cache. Stores are seeded and then abandoned or
// reopened the same way the restart tests do, so recovery always runs
// against real disk state.

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/scenario"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// diskServerRec is diskServer with recovery options and access to the
// *Server (for warmDone) and pipeline (for metrics). The store is
// abandoned un-Closed, modeling a SIGKILL.
func diskServerRec(t *testing.T, dir string, logger *log.Logger, rec RecoveryOptions, popts core.Options) (*httptest.Server, *Server, *core.Pipeline) {
	t.Helper()
	p, err := core.New(popts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenDisk(dir, store.Options{Logger: logger, Obs: p.Obs()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Pipeline: p, Store: st, Logger: logger, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s, p
}

// seedStoreDirect writes n healthy copies of the analyzed Mini corpus
// straight into dir's store (plus, when corrupt is true, one policy whose
// payload will never decode — simulating codec-version skew, the disk
// corruption the WAL's CRCs cannot catch). Returns the healthy IDs and the
// corrupt one ("" when none). The store is closed cleanly so the content
// lands in a snapshot.
func seedStoreDirect(t testing.TB, dir string, n int, corrupt bool) (ids []string, brokenID string) {
	t.Helper()
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenDisk(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pol, err := st.Create(fmt.Sprintf("mini-%d", i), store.Version{
			VersionMeta: store.VersionMeta{Company: a.Extraction.Company, Stats: a.VersionStats()},
			Payload:     payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pol.ID)
	}
	if corrupt {
		pol, err := st.Create("broken", store.Version{
			VersionMeta: store.VersionMeta{Company: "Broken"},
			Payload:     []byte("not an analysis payload"),
		})
		if err != nil {
			t.Fatal(err)
		}
		brokenID = pol.ID
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return ids, brokenID
}

// TestRecoveryQuarantinesCorruptPayload is the regression test for the
// boot-abort bug: one undecodable stored payload used to fail New for the
// whole store. Now every healthy policy serves and the corrupt one is
// quarantined — 503 on analysis endpoints, marked in the list, /healthz
// degraded, gauge set — until a PUT repairs it. The default server's
// warmer finds the corruption before any query; with the warmer off, the
// first query to the corrupt policy finds it.
func TestRecoveryQuarantinesCorruptPayload(t *testing.T) {
	for _, mode := range []struct {
		name string
		rec  RecoveryOptions
	}{
		{"lazy", RecoveryOptions{}},
		{"on-demand", RecoveryOptions{WarmWorkers: -1}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			ids, broken := seedStoreDirect(t, dir, 2, true)
			ts, srv, p := diskServerRec(t, dir, nil, mode.rec, core.Options{})
			// With a warmer, let it touch every cell before asserting.
			if srv.warmDone != nil {
				<-srv.warmDone
			}

			// Healthy policies serve analysis traffic.
			for _, id := range ids {
				var out map[string]any
				resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query",
					map[string]string{"question": "Does Acme collect my device identifiers?"}, &out)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("healthy policy %s query = %d (%v)", id, resp.StatusCode, out)
				}
			}

			// The corrupt one answers 503 with the quarantine reason.
			var qerr map[string]any
			resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+broken+"/query",
				map[string]string{"question": "Does Acme collect my device identifiers?"}, &qerr)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("quarantined query = %d, want 503 (%v)", resp.StatusCode, qerr)
			}
			if msg, _ := qerr["error"].(string); !strings.Contains(msg, "quarantined") {
				t.Errorf("503 body does not name quarantine: %v", qerr)
			}

			// Metadata still renders, with the marker, on get and list.
			var got map[string]any
			if resp := doJSON(t, "GET", ts.URL+"/v1/policies/"+broken, nil, &got); resp.StatusCode != http.StatusOK {
				t.Fatalf("quarantined get = %d", resp.StatusCode)
			}
			if got["quarantined"] != true {
				t.Errorf("get %s: quarantined marker missing: %v", broken, got)
			}
			var list []map[string]any
			doJSON(t, "GET", ts.URL+"/v1/policies", nil, &list)
			marked := 0
			for _, p := range list {
				if p["quarantined"] == true {
					marked++
				}
			}
			if len(list) != 3 || marked != 1 {
				t.Errorf("list: %d entries, %d marked quarantined (want 3/1)", len(list), marked)
			}

			// Health: degraded but still 200 — healthy policies serve, and
			// draining the instance would not fix a corrupt stored payload.
			var health map[string]any
			resp = doJSON(t, "GET", ts.URL+"/healthz", nil, &health)
			if resp.StatusCode != http.StatusOK || health["status"] != "degraded" {
				t.Errorf("healthz = %d %v, want 200 degraded", resp.StatusCode, health)
			}
			if health["quarantined"] != float64(1) {
				t.Errorf("healthz quarantined = %v, want 1", health["quarantined"])
			}
			if g := p.Obs().Gauge(metricQuarantined).Value(); g != 1 {
				t.Errorf("%s gauge = %v, want 1", metricQuarantined, g)
			}

			// PUT re-analyzes from fresh text and lifts the quarantine.
			var upd map[string]any
			resp = doJSON(t, "PUT", ts.URL+"/v1/policies/"+broken,
				map[string]string{"text": corpus.Mini()}, &upd)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("repair update = %d (%v)", resp.StatusCode, upd)
			}
			resp = doJSON(t, "POST", ts.URL+"/v1/policies/"+broken+"/query",
				map[string]string{"question": "Does Acme collect my device identifiers?"}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("repaired policy query = %d, want 200", resp.StatusCode)
			}
			if g := p.Obs().Gauge(metricQuarantined).Value(); g != 0 {
				t.Errorf("post-repair gauge = %v, want 0", g)
			}
			doJSON(t, "GET", ts.URL+"/healthz", nil, &health)
			if health["status"] != "ok" {
				t.Errorf("post-repair healthz = %v, want ok", health["status"])
			}
		})
	}
}

// TestRecoveryOnDemandWarmedIdentical is the differential test for lazy
// recovery: after a SIGKILL-style abandon, a server whose cells build only
// on demand and a server whose warmer has built every cell must both
// expose byte-identical state to the server before the restart — policy
// list, version histories, and query verdicts.
func TestRecoveryOnDemandWarmedIdentical(t *testing.T) {
	dir := t.TempDir()
	ts0 := diskServer(t, dir, nil)
	a := createPolicy(t, ts0)["id"].(string)
	b := createPolicy(t, ts0)["id"].(string)
	updateMini(t, ts0, b)
	ids := []string{a, b}
	before := observe(t, ts0, ids)
	ts0.Close() // abandoned un-Closed: recovery replays the WAL

	tsCold, _, pCold := diskServerRec(t, dir, nil, RecoveryOptions{WarmWorkers: -1}, core.Options{})
	if pending := pCold.Obs().Gauge(metricWarmPending).Value(); pending != float64(len(ids)) {
		t.Fatalf("on-demand server: %v cells pending before any query, want %d", pending, len(ids))
	}
	onDemand := observe(t, tsCold, ids)
	tsCold.Close()

	tsWarm, srvWarm, pWarm := diskServerRec(t, dir, nil, RecoveryOptions{}, core.Options{})
	<-srvWarm.warmDone
	if pending := pWarm.Obs().Gauge(metricWarmPending).Value(); pending != 0 {
		t.Fatalf("warmed server: %v cells still pending after the warmer finished", pending)
	}
	warmed := observe(t, tsWarm, ids)

	if before != onDemand {
		t.Errorf("on-demand recovery diverged from pre-restart state:\nbefore:\n%s\non-demand:\n%s", before, onDemand)
	}
	if before != warmed {
		t.Errorf("warmed recovery diverged from pre-restart state:\nbefore:\n%s\nwarmed:\n%s", before, warmed)
	}
}

// TestWarmerRaceBuildsOnce races queries against the background warmer
// (run under -race) and asserts the singleflight invariant: no matter who
// gets to a cell first, each policy's engine is built exactly once.
func TestWarmerRaceBuildsOnce(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	ids, _ := seedStoreDirect(t, dir, n, false)

	ts, srv, p := diskServerRec(t, dir, nil, RecoveryOptions{WarmWorkers: 2}, core.Options{})
	var wg sync.WaitGroup
	for _, id := range ids {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/policies/"+id+"/query", "application/json",
					strings.NewReader(`{"question":"Does Acme collect my device identifiers?"}`))
				if err == nil {
					resp.Body.Close()
				}
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("query %s during warm-up failed: %v %v", id, err, resp)
				}
			}(id)
		}
	}
	wg.Wait()
	<-srv.warmDone

	builds := p.Obs().Counter(metricEngineBuilds, "source", "query").Value() +
		p.Obs().Counter(metricEngineBuilds, "source", "warmer").Value()
	if builds != n {
		t.Errorf("engine builds = %d, want exactly %d", builds, n)
	}
	if pending := p.Obs().Gauge(metricWarmPending).Value(); pending != 0 {
		t.Errorf("warm-pending gauge = %v after warmDone, want 0", pending)
	}
}

// TestCheckPinnedVersionUsesEngineCache is the regression test for the
// rebuild-per-request bug: a /check pinned to a historical version used to
// decode the payload and rebuild the engine on every request. The second
// identical request must now be a cache hit.
func TestCheckPinnedVersionUsesEngineCache(t *testing.T) {
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	id := createPolicy(t, ts)["id"].(string)
	updateMini(t, ts, id) // two versions: pinning @1 is now historical

	suite := `suite "pin" {
  scenario "collection disclosed" {
    ask "Does Acme collect my device identifiers?"
    expect VALID
  }
}`
	for i := 0; i < 2; i++ {
		var out struct {
			Report scenario.Report `json:"report"`
		}
		resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/check",
			map[string]any{"suite": suite, "version": 1}, &out)
		if resp.StatusCode != http.StatusOK || !out.Report.OK {
			t.Fatalf("pinned check #%d = %d %+v", i+1, resp.StatusCode, out.Report)
		}
	}
	misses := p.Obs().Counter(metricVersionMisses).Value()
	hits := p.Obs().Counter(metricVersionHits).Value()
	if misses != 1 || hits != 1 {
		t.Errorf("version cache misses=%d hits=%d, want 1/1 (one decode, one reuse)", misses, hits)
	}
}

// TestCheckPinnedVersionIgnoresQuarantinedLatest is the regression test
// for a pinned check that resolved the latest version first: with a
// healthy version 1 and a corrupt version 2, a check pinned to version 1
// answered 503 for version 2's quarantine. The pinned check must now
// answer on version 1 alone, loading no other payload; only the unpinned
// check reports the quarantine.
func TestCheckPinnedVersionIgnoresQuarantinedLatest(t *testing.T) {
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMem(store.Options{Obs: p.Obs()})
	pol, err := st.Create("mini", mkStoreVersion(a, payload))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(pol.ID, 1, store.Version{
		VersionMeta: store.VersionMeta{Company: "Acme"},
		Payload:     []byte("not an analysis payload"),
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Pipeline: p, Store: st, Recovery: RecoveryOptions{WarmWorkers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	suite := `suite "pin" {
  scenario "collection disclosed" {
    ask "Does Acme collect my device identifiers?"
    expect VALID
  }
}`
	var pinned struct {
		Version int             `json:"version"`
		Report  scenario.Report `json:"report"`
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+pol.ID+"/check",
		map[string]any{"suite": suite, "version": 1}, &pinned)
	if resp.StatusCode != http.StatusOK || pinned.Version != 1 || !pinned.Report.OK {
		t.Fatalf("check pinned to healthy version 1 = %d %+v", resp.StatusCode, pinned)
	}
	if loads := p.Obs().Counter("quagmire_store_ops_total", "op", "load_payload").Value(); loads != 1 {
		t.Errorf("pinned check loaded %d payloads, want 1 (version 1 only)", loads)
	}
	if g := p.Obs().Gauge(metricQuarantined).Value(); g != 0 {
		t.Errorf("pinned check quarantined version 2: %s = %v", metricQuarantined, g)
	}

	resp = doJSON(t, "POST", ts.URL+"/v1/policies/"+pol.ID+"/check", map[string]any{"suite": suite}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unpinned check on corrupt version 2 = %d, want 503", resp.StatusCode)
	}
}

// TestEngineCacheConcurrentVersions races readers of a policy's recent
// versions against a writer that appends versions and releases the ones
// they supersede, as a follower's apply hook does (run under -race). Every
// third version's payload is corrupt. Every reader must get the engine of
// the version it asked for, or that version's quarantine; once a healthy
// newest version holds the latest slot, the gauges must count nothing.
func TestEngineCacheConcurrentVersions(t *testing.T) {
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var payloads [2][]byte
	var companies [2]string
	for i, text := range []string{corpus.Mini(), corpus.Generate(corpus.Config{
		Company: "Globex", Seed: 7, PracticeStatements: 6, DataRichness: 8, EntityRichness: 8,
	})} {
		a, err := p.Analyze(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		if payloads[i], err = core.EncodeAnalysis(a); err != nil {
			t.Fatal(err)
		}
		companies[i] = a.Extraction.Company
	}
	version := func(n int) store.Version {
		if n%3 == 0 {
			return store.Version{Payload: []byte("not an analysis payload")}
		}
		return store.Version{Payload: payloads[n%2]}
	}
	const last = 10 // healthy, so the final latest slot quarantines nothing
	st := store.NewMem(store.Options{})
	pol, err := st.Create("churn", version(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Pipeline: p, Store: st, Recovery: RecoveryOptions{WarmWorkers: -1}})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				meta, err := st.Get(pol.ID)
				if err != nil {
					t.Error(err)
					return
				}
				n := max(1, meta.Versions-rng.Intn(3))
				a, err := s.engine(meta, n, "query")
				switch {
				case n%3 == 0 && err == nil:
					t.Errorf("version %d: corrupt payload served an engine", n)
				case n%3 != 0 && err != nil:
					t.Errorf("version %d: %v", n, err)
				case n%3 != 0 && a.Extraction.Company != companies[n%2]:
					t.Errorf("version %d: engine of %s, want %s", n, a.Extraction.Company, companies[n%2])
				}
				s.engines.quarantined(pol.ID, meta.Versions)
				reads.Add(1)
			}
		}(g)
	}
	for n := 2; n <= last; n++ {
		if _, err := st.Append(pol.ID, n-1, version(n)); err != nil {
			t.Fatal(err)
		}
		s.ApplyReplicated(store.Record{ID: pol.ID, Version: store.Version{VersionMeta: store.VersionMeta{N: n}}})
		for target := reads.Load() + 16; reads.Load() < target; {
			runtime.Gosched() // let the readers meet this version
		}
	}
	close(done)
	wg.Wait()

	meta, err := st.Get(pol.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.engine(meta, last, "query"); err != nil {
		t.Fatal(err)
	}
	if g := p.Obs().Gauge(metricQuarantined).Value(); g != 0 {
		t.Errorf("%s = %v with healthy version %d latest, want 0", metricQuarantined, g, last)
	}
	if g := p.Obs().Gauge(metricWarmPending).Value(); g != 0 {
		t.Errorf("%s = %v after the recovered version was superseded, want 0", metricWarmPending, g)
	}
}

// closedStore fails LoadPayload with store.ErrClosed while closed is set,
// as a follower's store does between closing for a re-bootstrap and
// reopening.
type closedStore struct {
	store.PolicyStore
	closed atomic.Bool
}

func (c *closedStore) LoadPayload(id string, n int) ([]byte, error) {
	if c.closed.Load() {
		return nil, store.ErrClosed
	}
	return c.PolicyStore.LoadPayload(id, n)
}

// TestEngineBuildRetriesAfterClosedStore: a build that finds the store
// closed is not a corrupt payload, so it must latch nothing. A follower
// whose re-bootstrap fails reopens its old store without a reload, and a
// latched error would refuse the policy until its next version.
func TestEngineBuildRetriesAfterClosedStore(t *testing.T) {
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	st := &closedStore{PolicyStore: store.NewMem(store.Options{})}
	pol, err := st.Create("mini", mkStoreVersion(a, payload))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Pipeline: p, Store: st, Recovery: RecoveryOptions{WarmWorkers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ask := func() int {
		return doJSON(t, "POST", ts.URL+"/v1/policies/"+pol.ID+"/query",
			map[string]string{"question": "Does Acme collect my device identifiers?"}, nil).StatusCode
	}

	st.closed.Store(true)
	if code := ask(); code != http.StatusServiceUnavailable {
		t.Fatalf("query with the store closed = %d, want 503", code)
	}
	if g := p.Obs().Gauge(metricQuarantined).Value(); g != 0 {
		t.Errorf("a closed store quarantined the policy: %s = %v", metricQuarantined, g)
	}
	st.closed.Store(false)
	if code := ask(); code != http.StatusOK {
		t.Errorf("query once the store reopened = %d, want 200", code)
	}
}
