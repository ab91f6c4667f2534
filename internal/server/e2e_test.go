package server

// End-to-end HTTP conformance suite: an httptest-driven walk of every
// registered route — create → update → versions → diff → query → report —
// asserting status codes, content types and JSON shapes, so handler
// regressions fail here instead of in the CLI. Runs in CI's dedicated
// server e2e leg (-run 'E2E|Overload|Drain' -race -count=2).

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
)

// wantJSON asserts an application/json content type on resp.
func wantJSON(t *testing.T, resp *http.Response, what string) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s content type = %q, want application/json", what, ct)
	}
}

// getRaw fetches a path and returns status, content type and body.
func getRaw(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestE2EConformance walks the whole API surface in dependency order
// against one server instance.
func TestE2EConformance(t *testing.T) {
	ts := newTestServer(t)

	// healthz: ok status and the store self-report.
	var health struct {
		Status   string         `json:"status"`
		Policies int            `json:"policies"`
		Store    map[string]any `json:"store"`
	}
	resp := doJSON(t, "GET", ts.URL+"/healthz", nil, &health)
	wantJSON(t, resp, "healthz")
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}
	if health.Store["backend"] != "memory" {
		t.Errorf("store backend = %v, want memory", health.Store["backend"])
	}

	// Create: 201, full policy shape.
	var created struct {
		ID        string `json:"id"`
		Name      string `json:"name"`
		Company   string `json:"company"`
		Versions  int    `json:"versions"`
		Nodes     int    `json:"nodes"`
		Edges     int    `json:"edges"`
		Entities  int    `json:"entities"`
		DataTypes int    `json:"data_types"`
		Practices int    `json:"practices"`
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/policies",
		map[string]string{"name": "mini", "text": corpus.Mini()}, &created)
	wantJSON(t, resp, "create")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d %+v", resp.StatusCode, created)
	}
	if created.ID == "" || created.Company != "Acme" || created.Versions != 1 ||
		created.Nodes == 0 || created.Edges == 0 || created.Practices == 0 {
		t.Fatalf("create shape: %+v", created)
	}
	id := created.ID

	// List: one element, same shape.
	var list []map[string]any
	resp = doJSON(t, "GET", ts.URL+"/v1/policies", nil, &list)
	wantJSON(t, resp, "list")
	if resp.StatusCode != http.StatusOK || len(list) != 1 || list[0]["id"] != id {
		t.Fatalf("list = %d %v", resp.StatusCode, list)
	}

	// Get: mirrors the created payload.
	var got map[string]any
	resp = doJSON(t, "GET", ts.URL+"/v1/policies/"+id, nil, &got)
	wantJSON(t, resp, "get")
	if resp.StatusCode != http.StatusOK || got["name"] != "mini" {
		t.Fatalf("get = %d %v", resp.StatusCode, got)
	}

	// Update: version 2 with diff accounting.
	edited := strings.Replace(corpus.Mini(),
		"We collect device identifiers automatically.",
		"We collect device identifiers and sleep patterns automatically.", 1)
	var updated struct {
		Policy        map[string]any `json:"policy"`
		SegmentsKept  int            `json:"segments_kept"`
		SegmentsAdded int            `json:"segments_added"`
		EdgesAdded    int            `json:"edges_added"`
	}
	resp = doJSON(t, "PUT", ts.URL+"/v1/policies/"+id, map[string]string{"text": edited}, &updated)
	wantJSON(t, resp, "update")
	if resp.StatusCode != http.StatusOK || updated.Policy["versions"].(float64) != 2 {
		t.Fatalf("update = %d %+v", resp.StatusCode, updated)
	}
	if updated.SegmentsAdded != 1 || updated.SegmentsKept == 0 {
		t.Errorf("update accounting: %+v", updated)
	}

	// Versions: two metadata entries, ordered, with stats.
	var versions []struct {
		N       int            `json:"n"`
		Company string         `json:"company"`
		Stats   map[string]any `json:"stats"`
	}
	resp = doJSON(t, "GET", ts.URL+"/v1/policies/"+id+"/versions", nil, &versions)
	wantJSON(t, resp, "versions")
	if resp.StatusCode != http.StatusOK || len(versions) != 2 {
		t.Fatalf("versions = %d %+v", resp.StatusCode, versions)
	}
	if versions[0].N != 1 || versions[1].N != 2 || versions[0].Company != "Acme" {
		t.Errorf("version metadata: %+v", versions)
	}

	// Single version.
	var one map[string]any
	resp = doJSON(t, "GET", ts.URL+"/v1/policies/"+id+"/versions/2", nil, &one)
	wantJSON(t, resp, "version")
	if resp.StatusCode != http.StatusOK || one["n"].(float64) != 2 {
		t.Fatalf("version 2 = %d %v", resp.StatusCode, one)
	}

	// Diff between the two versions sees the added practice.
	var diff struct {
		From    int `json:"from"`
		To      int `json:"to"`
		Changes []struct {
			Kind     string `json:"kind"`
			DataType string `json:"data_type"`
		} `json:"changes"`
	}
	resp = doJSON(t, "GET", ts.URL+"/v1/policies/"+id+"/diff?from=1&to=2", nil, &diff)
	wantJSON(t, resp, "diff")
	if resp.StatusCode != http.StatusOK || diff.From != 1 || diff.To != 2 {
		t.Fatalf("diff = %d %+v", resp.StatusCode, diff)
	}
	added := false
	for _, c := range diff.Changes {
		added = added || c.Kind == "added"
	}
	if !added {
		t.Errorf("diff missed the added practice: %+v", diff.Changes)
	}

	// Edges and vague terms.
	var edges []map[string]any
	resp = doJSON(t, "GET", ts.URL+"/v1/policies/"+id+"/edges?limit=2", nil, &edges)
	wantJSON(t, resp, "edges")
	if resp.StatusCode != http.StatusOK || len(edges) != 2 || edges[0]["text"] == "" {
		t.Fatalf("edges = %d %v", resp.StatusCode, edges)
	}
	var vague []struct {
		Term        string `json:"term"`
		Occurrences int    `json:"occurrences"`
	}
	resp = doJSON(t, "GET", ts.URL+"/v1/policies/"+id+"/vague", nil, &vague)
	wantJSON(t, resp, "vague")
	if resp.StatusCode != http.StatusOK || len(vague) == 0 || vague[0].Occurrences == 0 {
		t.Fatalf("vague = %d %+v", resp.StatusCode, vague)
	}

	// Query: verdict plus formula size.
	var q struct {
		Verdict     string `json:"verdict"`
		FormulaSize int    `json:"formula_size"`
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query",
		map[string]string{"question": "Does Acme share my email address with advertising partners?"}, &q)
	wantJSON(t, resp, "query")
	if resp.StatusCode != http.StatusOK || q.Verdict != "VALID" || q.FormulaSize == 0 {
		t.Fatalf("query = %d %+v", resp.StatusCode, q)
	}

	// Verify-batch: per-item results and cache stats.
	var batch struct {
		Results []struct {
			Question string `json:"question"`
			Verdict  string `json:"verdict"`
		} `json:"results"`
		SMTCache map[string]any `json:"smt_cache"`
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/verify-batch",
		map[string]any{"questions": []string{
			"Does Acme share my email address with advertising partners?",
			"Does Acme sell my personal information?",
		}}, &batch)
	wantJSON(t, resp, "verify-batch")
	if resp.StatusCode != http.StatusOK || len(batch.Results) != 2 {
		t.Fatalf("verify-batch = %d %+v", resp.StatusCode, batch)
	}
	if batch.Results[0].Verdict != "VALID" || batch.Results[1].Verdict != "INVALID" {
		t.Errorf("batch verdicts: %+v", batch.Results)
	}

	// Explore: scenario enumeration.
	var explore struct {
		Scenarios []map[string]any `json:"scenarios"`
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/explore",
		map[string]string{"question": "Does Acme share my usage data with service providers?"}, &explore)
	wantJSON(t, resp, "explore")
	if resp.StatusCode != http.StatusOK || len(explore.Scenarios) < 2 {
		t.Fatalf("explore = %d %+v", resp.StatusCode, explore)
	}

	// Report: markdown, not JSON.
	code, ct, body := getRaw(t, ts.URL+"/v1/policies/"+id+"/report")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/markdown") || !strings.Contains(body, "# Privacy Policy Audit") {
		t.Fatalf("report = %d %q", code, ct)
	}

	// DOT: graphviz content type for every kind.
	for _, kind := range []string{"graph", "data", "entity"} {
		code, ct, body = getRaw(t, ts.URL+"/v1/policies/"+id+"/dot?kind="+kind)
		if code != http.StatusOK || !strings.HasPrefix(ct, "text/vnd.graphviz") || !strings.Contains(body, "digraph") {
			t.Fatalf("dot kind=%s = %d %q", kind, code, ct)
		}
	}

	// Solve: raw SMT-LIB round trip.
	var solved []map[string]any
	resp = doJSON(t, "POST", ts.URL+"/v1/solve",
		map[string]string{"script": "(declare-fun p () Bool)\n(assert p)\n(check-sat)"}, &solved)
	wantJSON(t, resp, "solve")
	if resp.StatusCode != http.StatusOK || len(solved) != 1 || solved[0]["status"] != "sat" {
		t.Fatalf("solve = %d %v", resp.StatusCode, solved)
	}
	// check-sat-assuming assumes its literals for that check only.
	solved = nil
	resp = doJSON(t, "POST", ts.URL+"/v1/solve", map[string]string{"script": "(declare-fun p () Bool)\n(assert (not p))\n" +
		"(check-sat-assuming (p))\n(check-sat-assuming ((not p)))\n(check-sat)"}, &solved)
	if resp.StatusCode != http.StatusOK || len(solved) != 3 ||
		solved[0]["status"] != "unsat" || solved[1]["status"] != "sat" || solved[2]["status"] != "sat" {
		t.Fatalf("check-sat-assuming solve = %d %v, want unsat, sat, sat", resp.StatusCode, solved)
	}

	// Metrics: Prometheus text including the new lifecycle collectors.
	code, ct, body = getRaw(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics = %d %q", code, ct)
	}
	for _, want := range []string{
		"quagmire_http_requests_total",
		"quagmire_http_solver_inflight",
		"quagmire_smt_solve_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Debug vars is JSON.
	code, ct, _ = getRaw(t, ts.URL+"/debug/vars")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("debug/vars = %d %q", code, ct)
	}
}

// TestE2EErrorContract pins status codes for the failure surface of every
// route family: missing resources, malformed versions, bad methods.
func TestE2EErrorContract(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)

	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"GET", "/v1/policies/ghost", nil, http.StatusNotFound},
		{"GET", "/v1/policies/ghost/versions", nil, http.StatusNotFound},
		{"GET", "/v1/policies/" + id + "/versions/99", nil, http.StatusNotFound},
		{"GET", "/v1/policies/" + id + "/versions/zero", nil, http.StatusBadRequest},
		{"GET", "/v1/policies/" + id + "/diff?from=1&to=99", nil, http.StatusNotFound},
		{"GET", "/v1/policies/" + id + "/diff?from=x&to=1", nil, http.StatusBadRequest},
		{"GET", "/v1/policies/" + id + "/dot?kind=bogus", nil, http.StatusBadRequest},
		{"GET", "/v1/policies/" + id + "/edges?limit=nan", nil, http.StatusBadRequest},
		{"POST", "/v1/policies/" + id + "/query", map[string]string{}, http.StatusBadRequest},
		{"POST", "/v1/policies/" + id + "/explore", map[string]string{}, http.StatusBadRequest},
		{"POST", "/v1/policies/" + id + "/verify-batch", map[string]any{"questions": []string{}}, http.StatusBadRequest},
		{"PUT", "/v1/policies/" + id, map[string]string{}, http.StatusBadRequest},
		{"DELETE", "/v1/policies/" + id, nil, http.StatusMethodNotAllowed},
		{"POST", "/v1/solve", map[string]string{}, http.StatusBadRequest},
		{"POST", "/v1/solve", map[string]string{"script": "(declare-fun p () Bool)(check-sat-assuming ((and p p)))"}, http.StatusUnprocessableEntity},
		// Scope numerals past what the script may have open.
		{"POST", "/v1/solve", map[string]string{"script": "(push 9223372036854775807)"}, http.StatusUnprocessableEntity},
		{"POST", "/v1/solve", map[string]string{"script": "(pop 9223372036854775807)"}, http.StatusUnprocessableEntity},
		// A second sort: solved over one domain it would read unsat.
		{"POST", "/v1/solve", map[string]string{"script": "(declare-sort A 0) (declare-sort B 0)\n" +
			"(declare-const a A) (declare-const b1 B) (declare-const b2 B)\n" +
			"(assert (forall ((x A) (y A)) (= x y)))\n(assert (not (= b1 b2)))\n(check-sat)"}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		var out map[string]any
		resp := doJSON(t, c.method, ts.URL+c.path, c.body, &out)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d (%v)", c.method, c.path, resp.StatusCode, c.want, out)
		}
		// 405s come straight from ServeMux (text/plain); everything else
		// must carry the JSON error envelope.
		if resp.StatusCode >= 400 && resp.StatusCode != http.StatusMethodNotAllowed {
			wantJSON(t, resp, c.method+" "+c.path)
			if msg, _ := out["error"].(string); msg == "" {
				t.Errorf("%s %s: empty error envelope", c.method, c.path)
			}
		}
	}
}

// TestE2EPostBodyHygiene audits every bodied endpoint for the two body
// failure modes: an explicit non-JSON Content-Type must 415 before any
// parsing, and a payload past MaxBodyBytes must 413.
func TestE2EPostBodyHygiene(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)

	endpoints := []struct{ method, path string }{
		{"POST", "/v1/policies"},
		{"PUT", "/v1/policies/" + id},
		{"POST", "/v1/policies/" + id + "/query"},
		{"POST", "/v1/policies/" + id + "/verify-batch"},
		{"POST", "/v1/policies/" + id + "/explore"},
		{"POST", "/v1/solve"},
	}

	t.Run("UnsupportedMediaType", func(t *testing.T) {
		for _, ep := range endpoints {
			req, err := http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(`{"text":"x"}`))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "text/plain")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Errorf("%s %s with text/plain = %d, want 415", ep.method, ep.path, resp.StatusCode)
			}
		}
	})

	t.Run("Oversized", func(t *testing.T) {
		// Valid JSON shape, just too big: the limit must fire during decode.
		huge := `{"pad":"` + strings.Repeat("x", MaxBodyBytes+1) + `"}`
		for _, ep := range endpoints {
			req, err := http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(huge))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s oversized = %d, want 413 (%v)", ep.method, ep.path, resp.StatusCode, out)
			}
		}
	})

	t.Run("MissingContentTypeTolerated", func(t *testing.T) {
		// Bare curl-style POST without a Content-Type header still works.
		req, err := http.NewRequest("POST", ts.URL+"/v1/solve",
			strings.NewReader(`{"script":"(declare-fun p () Bool)\n(assert p)\n(check-sat)"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Del("Content-Type")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST /v1/solve without Content-Type = %d, want 200", resp.StatusCode)
		}
	})
}

// TestE2ETrailingGarbageDrained checks that a body with bytes after the
// JSON value still decodes (the remainder is drained for keep-alive) —
// pinning the decodeBody drain behavior.
func TestE2ETrailingGarbageDrained(t *testing.T) {
	ts := newTestServer(t)
	body := `{"script":"(declare-fun p () Bool)\n(assert p)\n(check-sat)"}  trailing`
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing bytes after JSON = %d, want 200", resp.StatusCode)
	}
}
