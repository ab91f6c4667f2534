package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// createNamed stores one policy text and returns its ID.
func createNamed(t *testing.T, ts *httptest.Server, name, text string) string {
	t.Helper()
	var created map[string]any
	resp := doJSON(t, "POST", ts.URL+"/v1/policies", map[string]string{"name": name, "text": text}, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s = %d (%v)", name, resp.StatusCode, created)
	}
	return created["id"].(string)
}

// TestQueryReportsContradictionCause: an UNKNOWN that comes from a
// self-contradictory policy says so on /query.
func TestQueryReportsContradictionCause(t *testing.T) {
	text, err := os.ReadFile("../../examples/suites/contradiction_policy.txt")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t)
	id := createNamed(t, ts, "contradiction", string(text))
	var out queryResponse
	resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query",
		map[string]string{"question": "Does Acme share my email address with advertisers?"}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d", resp.StatusCode)
	}
	if out.Verdict != query.Unknown || out.Cause != query.CauseContradiction {
		t.Errorf("verdict %s, cause %q; want UNKNOWN, %q", out.Verdict, out.Cause, query.CauseContradiction)
	}
}

// TestUnknownReportsBudgetCause: under a one-instantiation budget the
// solver gives up on a question it would answer VALID, whose refutation
// needs two instances, and /query, verify-batch and the corpus sweep row
// all name the budget that stopped it, while a decided verdict carries no
// cause. /v1/solve solves with the same limits, so replaying the /query
// script there returns the statuses the verdict came from.
func TestUnknownReportsBudgetCause(t *testing.T) {
	const budget = "model found but quantifier instantiation incomplete"
	const q = "Does Acme share my email address with advertising partners?"
	p, err := core.New(core.Options{Limits: smt.Limits{MaxInstantiations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	id := createNamed(t, ts, "mini", corpus.Mini())

	var one queryResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query", map[string]any{"question": q, "include_script": true}, &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d", resp.StatusCode)
	}
	if one.Verdict != query.Unknown || one.Cause != budget {
		t.Errorf("/query: verdict %s, cause %q; want UNKNOWN, %q", one.Verdict, one.Cause, budget)
	}

	var replay []solveResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/solve", map[string]string{"script": one.Script}, &replay); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve = %d", resp.StatusCode)
	}
	results, err := smt.RunScript(one.Script, p.Limits())
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(results) || len(replay) == 0 {
		t.Fatalf("/v1/solve gave %d results, the script has %d checks", len(replay), len(results))
	}
	for i, r := range results {
		if replay[i].Status != r.Status.String() || replay[i].Reason != r.Reason {
			t.Errorf("/v1/solve check %d: %s (%q), the pipeline's limits give %s (%q)", i, replay[i].Status, replay[i].Reason, r.Status, r.Reason)
		}
	}
	if replay[0].Status != smt.Unknown.String() || replay[0].Reason != budget {
		t.Errorf("/v1/solve main check: %s (%q); /query answered UNKNOWN because of %q", replay[0].Status, replay[0].Reason, budget)
	}

	var batch verifyBatchResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/verify-batch",
		map[string][]string{"questions": {q}}, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("verify-batch = %d", resp.StatusCode)
	}
	if got := batch.Results[0]; got.Verdict != query.Unknown || got.Cause != budget {
		t.Errorf("verify-batch: verdict %s, cause %q; want UNKNOWN, %q", got.Verdict, got.Cause, budget)
	}

	rows, _ := corpusQueryLines(t, ts, q)
	if len(rows) != 1 || rows[0].Verdict != query.Unknown || rows[0].Cause != budget {
		t.Errorf("corpus sweep rows %+v; want one UNKNOWN with cause %q", rows, budget)
	}

	// With the default budget the same question decides and has no cause.
	ts2 := newTestServer(t)
	id2 := createNamed(t, ts2, "mini", corpus.Mini())
	var decided queryResponse
	doJSON(t, "POST", ts2.URL+"/v1/policies/"+id2+"/query", map[string]string{"question": q}, &decided)
	if decided.Verdict != query.Valid || decided.Cause != "" {
		t.Errorf("default budget: verdict %s, cause %q; want VALID with no cause", decided.Verdict, decided.Cause)
	}
}
