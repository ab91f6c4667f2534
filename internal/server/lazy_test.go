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
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
			VersionMeta: store.VersionMeta{Company: a.Extraction.Company, Stats: versionStats(a)},
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
