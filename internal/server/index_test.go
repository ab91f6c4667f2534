package server

// Vocabulary-index tests: writes embed nothing, the first question about
// a version builds its engine's index, and recovered engines are indexed
// before the warm-pending gauge counts them ready.

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/obs"
)

// indexBuilds counts vocabulary index builds on the pipeline's engines.
func indexBuilds(p *core.Pipeline) uint64 {
	return p.Obs().Histogram("quagmire_engine_index_seconds", obs.TimeBuckets).Count()
}

// askOK sends one /query and fails the test unless it answers 200.
func askOK(t *testing.T, ts *httptest.Server, id, question string) {
	t.Helper()
	var out map[string]any
	resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query",
		map[string]string{"question": question}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s = %d (%v)", id, resp.StatusCode, out)
	}
}

// TestWritesBuildNoIndex: POST and PUT analyze a policy without embedding
// its vocabulary; the first question about the new version builds the
// index, and later questions reuse it.
func TestWritesBuildNoIndex(t *testing.T) {
	ts, p := newPipelineServer(t, Options{})
	id := createPolicy(t, ts)["id"].(string)
	if n := indexBuilds(p); n != 0 {
		t.Fatalf("POST built %d indexes, want 0", n)
	}
	updateMini(t, ts, id)
	if n := indexBuilds(p); n != 0 {
		t.Fatalf("POST + PUT built %d indexes, want 0", n)
	}
	askOK(t, ts, id, "Does Acme share my e-mail addresses with advertisers?")
	if n := indexBuilds(p); n != 1 {
		t.Fatalf("first query on the new version built %d indexes, want 1", n)
	}
	askOK(t, ts, id, "Does Acme sell my personal information?")
	if n := indexBuilds(p); n != 1 {
		t.Errorf("second query rebuilt the index: %d builds, want 1", n)
	}
}

// TestWarmPendingCountsIndexedEngines: after a restart the warm-pending
// gauge reaches 0 only once every recovered engine has its index, so the
// build count equals the recovered policies at that moment and stays
// there when the warmer finishes.
func TestWarmPendingCountsIndexedEngines(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	ts1, _, _ := diskServerRec(t, dir, nil, RecoveryOptions{}, core.Options{})
	for i := 0; i < n; i++ {
		createPolicy(t, ts1)
	}
	ts1.Close() // the store is abandoned un-Closed: recovery replays the WAL

	_, srv, p := diskServerRec(t, dir, nil, RecoveryOptions{}, core.Options{})
	pending := p.Obs().Gauge(metricWarmPending)
	for deadline := time.Now().Add(time.Minute); pending.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("warm-pending gauge still %v after a minute", pending.Value())
		}
	}
	if got := indexBuilds(p); got != n {
		t.Errorf("warm-pending reads 0 with %d indexes built, want %d", got, n)
	}
	<-srv.warmDone
	if got := indexBuilds(p); got != n {
		t.Errorf("after the warmer finished: %d indexes built, want %d", got, n)
	}
}
