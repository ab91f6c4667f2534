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
// solver gives up on a question it would answer INVALID, and /query,
// verify-batch and the corpus sweep row all name the budget that stopped
// it, while a decided verdict carries no cause.
func TestUnknownReportsBudgetCause(t *testing.T) {
	const budget = "model found but quantifier instantiation incomplete"
	const q = "Does Acme sell my personal information?"
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
	if resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query", map[string]string{"question": q}, &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d", resp.StatusCode)
	}
	if one.Verdict != query.Unknown || one.Cause != budget {
		t.Errorf("/query: verdict %s, cause %q; want UNKNOWN, %q", one.Verdict, one.Cause, budget)
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
	if decided.Verdict != query.Invalid || decided.Cause != "" {
		t.Errorf("default budget: verdict %s, cause %q; want INVALID with no cause", decided.Verdict, decided.Cause)
	}
}
