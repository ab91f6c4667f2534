package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts, _ := newPipelineServer(t, Options{})
	return ts
}

// newPipelineServer starts an in-memory server with opts on a fresh
// default pipeline, which it returns for its metrics.
func newPipelineServer(t *testing.T, opts Options) (*httptest.Server, *core.Pipeline) {
	t.Helper()
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Pipeline = p
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, p
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp
}

func createPolicy(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	var created map[string]any
	resp := doJSON(t, "POST", ts.URL+"/v1/policies",
		map[string]string{"name": "mini", "text": corpus.Mini()}, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d (%v)", resp.StatusCode, created)
	}
	return created
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	var out map[string]any
	resp := doJSON(t, "GET", ts.URL+"/healthz", nil, &out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("health = %d %v", resp.StatusCode, out)
	}
}

func TestCreateAndGetPolicy(t *testing.T) {
	ts := newTestServer(t)
	created := createPolicy(t, ts)
	if created["company"] != "Acme" {
		t.Errorf("company = %v", created["company"])
	}
	if created["edges"].(float64) == 0 {
		t.Error("no edges")
	}
	id := created["id"].(string)

	var got map[string]any
	resp := doJSON(t, "GET", ts.URL+"/v1/policies/"+id, nil, &got)
	if resp.StatusCode != http.StatusOK || got["id"] != id {
		t.Fatalf("get = %d %v", resp.StatusCode, got)
	}

	var list []map[string]any
	resp = doJSON(t, "GET", ts.URL+"/v1/policies", nil, &list)
	if resp.StatusCode != http.StatusOK || len(list) != 1 {
		t.Fatalf("list = %d %v", resp.StatusCode, list)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)

	var out map[string]any
	resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query",
		map[string]any{"question": "Does Acme share my email address with advertising partners?", "include_script": true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d %v", resp.StatusCode, out)
	}
	if out["verdict"] != "VALID" {
		t.Errorf("verdict = %v", out["verdict"])
	}
	if !strings.Contains(out["script"].(string), "check-sat") {
		t.Error("script missing")
	}
	// Without include_script the script is omitted.
	var out2 map[string]any
	doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query",
		map[string]any{"question": "Does Acme sell my personal information?"}, &out2)
	if _, hasScript := out2["script"]; hasScript {
		t.Error("script should be omitted")
	}
	if out2["verdict"] != "INVALID" {
		t.Errorf("verdict 2 = %v", out2["verdict"])
	}
}

func TestEdgesAndVagueEndpoints(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)

	var edges []map[string]any
	resp := doJSON(t, "GET", ts.URL+"/v1/policies/"+id+"/edges?limit=3", nil, &edges)
	if resp.StatusCode != http.StatusOK || len(edges) != 3 {
		t.Fatalf("edges = %d, %d entries", resp.StatusCode, len(edges))
	}
	if !strings.Contains(edges[0]["text"].(string), "->") {
		t.Errorf("edge text = %v", edges[0]["text"])
	}

	var vague []map[string]any
	resp = doJSON(t, "GET", ts.URL+"/v1/policies/"+id+"/vague", nil, &vague)
	if resp.StatusCode != http.StatusOK || len(vague) == 0 {
		t.Fatalf("vague = %d, %d entries", resp.StatusCode, len(vague))
	}
}

func TestUpdateEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)

	edited := strings.Replace(corpus.Mini(),
		"We collect device identifiers automatically.",
		"We collect device identifiers and sleep patterns automatically.", 1)
	var out map[string]any
	resp := doJSON(t, "PUT", ts.URL+"/v1/policies/"+id,
		map[string]string{"text": edited}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update = %d %v", resp.StatusCode, out)
	}
	if out["segments_added"].(float64) != 1 || out["edges_added"].(float64) == 0 {
		t.Errorf("update accounting: %v", out)
	}
	policy := out["policy"].(map[string]any)
	if policy["versions"].(float64) != 2 {
		t.Errorf("versions = %v", policy["versions"])
	}
}

func TestSolveEndpoint(t *testing.T) {
	ts := newTestServer(t)
	script := `
(declare-fun p () Bool)
(assert p)
(assert (not p))
(check-sat)`
	var out []map[string]any
	resp := doJSON(t, "POST", ts.URL+"/v1/solve", map[string]string{"script": script}, &out)
	if resp.StatusCode != http.StatusOK || len(out) != 1 {
		t.Fatalf("solve = %d %v", resp.StatusCode, out)
	}
	if out[0]["status"] != "unsat" {
		t.Errorf("status = %v", out[0]["status"])
	}
}

// TestQueryScriptReplaysThroughSolve replays the script of /query answers
// through POST /v1/solve: its checks — main, then the placeholder-assuming
// check when the question has placeholders, then the policy alone —
// return the statuses the served verdict was derived from.
func TestQueryScriptReplaysThroughSolve(t *testing.T) {
	ts := newTestServer(t)
	text := "Acme Privacy Policy\n\nAcme (\"we\", \"us\") provides this policy.\n\n" +
		"We share your email address with advertisers.\n\n" +
		"We do not share your email address with advertisers.\n\n" +
		"We collect your location data when required by law.\n\n" +
		"We collect your device information.\n"
	var created map[string]any
	if resp := doJSON(t, "POST", ts.URL+"/v1/policies", map[string]string{"name": "acme", "text": text}, &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d %v", resp.StatusCode, created)
	}
	id := created["id"].(string)
	cases := []struct{ question, verdict string }{
		{"Does Acme share my email address with advertisers?", "UNKNOWN"}, // contradiction
		{"Does Acme collect my location data?", "VALID"},                  // conditional
		{"Does Acme collect my device information?", "VALID"},
		{"Does Acme sell my device information?", "INVALID"},
	}
	for _, c := range cases {
		var answer struct {
			Verdict       string   `json:"verdict"`
			ConditionalOn []string `json:"conditional_on"`
			Placeholders  []string `json:"placeholders"`
			Script        string   `json:"script"`
		}
		resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/query",
			map[string]any{"question": c.question, "include_script": true}, &answer)
		if resp.StatusCode != http.StatusOK || answer.Verdict != c.verdict {
			t.Fatalf("%q = %d %+v, want %s", c.question, resp.StatusCode, answer, c.verdict)
		}
		var replay []struct {
			Status string `json:"status"`
		}
		resp = doJSON(t, "POST", ts.URL+"/v1/solve", map[string]string{"script": answer.Script}, &replay)
		want := 2
		if len(answer.Placeholders) > 0 {
			want = 3
		}
		if resp.StatusCode != http.StatusOK || len(replay) != want {
			t.Fatalf("%q: solve = %d %+v, want %d checks", c.question, resp.StatusCode, replay, want)
		}
		main, alone := replay[0].Status, replay[len(replay)-1].Status
		verdict, conditional := "UNKNOWN", false
		switch {
		case main == "unsat" && alone != "unsat":
			verdict = "VALID"
		case main == "sat" && want == 3 && replay[1].Status == "unsat":
			verdict, conditional = "VALID", true
		case main == "sat":
			verdict = "INVALID"
		}
		if verdict != answer.Verdict || conditional != (len(answer.ConditionalOn) > 0) {
			t.Errorf("%q: replayed statuses %+v give %s (conditional %v), served %s on %v",
				c.question, replay, verdict, conditional, answer.Verdict, answer.ConditionalOn)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		method, path string
		body         any
		wantStatus   int
	}{
		{"GET", "/v1/policies/nope", nil, http.StatusNotFound},
		{"POST", "/v1/policies", map[string]string{}, http.StatusBadRequest},                          // missing text
		{"POST", "/v1/policies", nil, http.StatusBadRequest},                                          // empty body
		{"POST", "/v1/solve", map[string]string{"script": "(assert"}, http.StatusUnprocessableEntity}, // malformed SMT-LIB
		{"POST", "/v1/solve", map[string]string{}, http.StatusBadRequest},
		{"GET", "/v1/policies/nope/edges", nil, http.StatusNotFound},
		{"POST", "/v1/policies/nope/query", map[string]string{"question": "x"}, http.StatusNotFound},
		{"DELETE", "/v1/policies", nil, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		var out any
		resp := doJSON(t, c.method, ts.URL+c.path, c.body, &out)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s = %d, want %d (%v)", c.method, c.path, resp.StatusCode, c.wantStatus, out)
		}
	}
}

func TestUnknownJSONFieldRejected(t *testing.T) {
	ts := newTestServer(t)
	var out map[string]any
	resp := doJSON(t, "POST", ts.URL+"/v1/policies",
		map[string]string{"text": corpus.Mini(), "surprise": "1"}, &out)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}
}

func TestInvalidLimitParam(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)
	var out map[string]any
	resp := doJSON(t, "GET", ts.URL+"/v1/policies/"+id+"/edges?limit=-1", nil, &out)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative limit accepted: %d", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	ts := newTestServer(t)
	huge := strings.Repeat("x", MaxBodyBytes+1)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/policies", strings.NewReader(`{"text":"`+huge+`"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d", resp.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	// The queue holds the whole burst: this test is about concurrent
	// correctness, and TestOverloadShedsPastAdmissionCap covers shedding.
	ts, _ := newPipelineServer(t, Options{Admission: AdmissionConfig{MaxQueue: 20}})
	id := createPolicy(t, ts)["id"].(string)
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf(`{"question":"Does Acme collect my device identifiers?%s"}`, strings.Repeat(" ", i%3))
			resp, err := http.Post(ts.URL+"/v1/policies/"+id+"/query", "application/json", strings.NewReader(q))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestVerifyBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)

	var out map[string]any
	resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/verify-batch",
		map[string]any{"questions": []string{
			"Does Acme share my email address with advertising partners?",
			"Does Acme sell my personal information?",
			"Does Acme share my email address with advertising partners?",
		}}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify-batch = %d %v", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %d entries", len(results))
	}
	first := results[0].(map[string]any)
	if first["verdict"] != "VALID" {
		t.Errorf("verdict[0] = %v", first["verdict"])
	}
	if first["question"] != "Does Acme share my email address with advertising partners?" {
		t.Errorf("question[0] = %v", first["question"])
	}
	if results[1].(map[string]any)["verdict"] != "INVALID" {
		t.Errorf("verdict[1] = %v", results[1].(map[string]any)["verdict"])
	}
	// The repeated query must agree with its first occurrence and the
	// shared SMT cache must report hits for it.
	if results[2].(map[string]any)["verdict"] != first["verdict"] {
		t.Errorf("repeated query diverged: %v", results[2])
	}
	cache := out["smt_cache"].(map[string]any)
	if cache["hits"].(float64) == 0 {
		t.Errorf("repeated query should hit the SMT cache: %v", cache)
	}

	// Error paths.
	for _, body := range []map[string]any{
		{"questions": []string{}},
		{"questions": []string{"ok", ""}},
	} {
		resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/verify-batch", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad batch %v = %d", body, resp.StatusCode)
		}
	}
	big := make([]string, MaxBatchQuestions+1)
	for i := range big {
		big[i] = "q"
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/verify-batch",
		map[string]any{"questions": big}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch = %d", resp.StatusCode)
	}
}

// TestConcurrentMixedAccess exercises the snapshot discipline under -race:
// reads, queries and batch verifications run concurrently with incremental
// updates and new uploads. Updates racing updates may 409; everything else
// must succeed.
func TestConcurrentMixedAccess(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)

	edited := strings.Replace(corpus.Mini(),
		"We collect device identifiers automatically.",
		"We collect device identifiers and sleep patterns automatically.", 1)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	post := func(path string, body any, allowed ...int) {
		defer wg.Done()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			errs <- err
			return
		}
		req, err := http.NewRequest("POST", ts.URL+path, &buf)
		if err != nil {
			errs <- err
			return
		}
		if strings.HasPrefix(path, "/v1/policies/"+id) && body != nil {
			if _, isUpdate := body.(map[string]string); isUpdate {
				req.Method = "PUT"
			}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errs <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		for _, code := range allowed {
			if resp.StatusCode == code {
				return
			}
		}
		errs <- fmt.Errorf("%s %s = %d", req.Method, path, resp.StatusCode)
	}
	get := func(path string) {
		defer wg.Done()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			errs <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}

	for i := 0; i < 6; i++ {
		wg.Add(5)
		go post("/v1/policies/"+id+"/query",
			map[string]any{"question": "Does Acme collect my device identifiers?"}, http.StatusOK)
		go post("/v1/policies/"+id+"/verify-batch",
			map[string]any{"questions": []string{
				"Does Acme share my email address with advertising partners?",
				"Does Acme sell my personal information?",
			}}, http.StatusOK)
		// Concurrent updates may lose the swap race and 409; that is the
		// documented contract, not a failure.
		go post("/v1/policies/"+id,
			map[string]string{"text": edited}, http.StatusOK, http.StatusConflict)
		go post("/v1/policies",
			map[string]any{"text": corpus.Mini()}, http.StatusCreated)
		go get("/v1/policies/" + id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNewRequiresPipeline(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("nil pipeline accepted")
	}
}

func TestExploreEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)
	var out map[string]any
	resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/explore",
		map[string]string{"question": "Does Acme share my usage data with service providers?"}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore = %d %v", resp.StatusCode, out)
	}
	scenarios := out["scenarios"].([]any)
	if len(scenarios) < 2 {
		t.Fatalf("scenarios = %v", out)
	}
	if out["always_valid"] == true {
		t.Error("conditional query cannot be always-valid")
	}
	// Missing question.
	resp = doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/explore", map[string]string{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing question = %d", resp.StatusCode)
	}
}

func TestReportAndDotEndpoints(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/policies/" + id + "/report?hierarchy=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "# Privacy Policy Audit") {
		t.Fatalf("report = %d\n%s", resp.StatusCode, body[:min(120, len(body))])
	}
	if !strings.Contains(string(body), "Data type hierarchy") {
		t.Error("hierarchy section missing with hierarchy=1")
	}

	resp, err = http.Get(ts.URL + "/v1/policies/" + id + "/dot?kind=data")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "digraph") {
		t.Fatalf("dot = %d\n%s", resp.StatusCode, body[:min(120, len(body))])
	}

	resp, err = http.Get(ts.URL + "/v1/policies/" + id + "/dot?kind=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus dot kind = %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint drives a full analyze + verify-batch cycle, then
// asserts the Prometheus exposition reflects it: nonzero solve-time
// histogram buckets, verdict counters, cache counters and HTTP counters.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := createPolicy(t, ts)["id"].(string)
	resp := doJSON(t, "POST", ts.URL+"/v1/policies/"+id+"/verify-batch",
		map[string]any{"questions": []string{
			"Does Acme share my email address with advertising partners?",
			"Does Acme sell my personal information?",
		}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify-batch = %d", resp.StatusCode)
	}

	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	if metricsResp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", metricsResp.StatusCode)
	}
	if ct := metricsResp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(metricsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// The solve histogram's +Inf bucket counts every fresh solve; after a
	// verify-batch it must be nonzero.
	infBucket := 0.0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `quagmire_smt_solve_seconds_bucket{le="+Inf"}`) {
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &infBucket); err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
		}
	}
	if infBucket == 0 {
		t.Errorf("quagmire_smt_solve_seconds +Inf bucket is zero after verify-batch:\n%s", body)
	}
	for _, want := range []string{
		"# TYPE quagmire_smt_solve_seconds histogram",
		"quagmire_smt_solve_seconds_sum",
		"quagmire_smt_solve_seconds_count",
		`quagmire_query_verdicts_total{verdict="VALID"}`,
		"quagmire_smt_cache_hits_total",
		"quagmire_smt_cache_misses_total",
		"quagmire_extract_segments_total",
		"quagmire_pipeline_phase_seconds_bucket",
		"quagmire_http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugEndpoints checks the expvar and pprof wiring.
func TestDebugEndpoints(t *testing.T) {
	ts := newTestServer(t)
	createPolicy(t, ts)

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Quagmire struct {
			Counters map[string]float64 `json:"counters"`
		} `json:"quagmire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	if vars.Quagmire.Counters["quagmire_extract_segments_total"] == 0 {
		t.Errorf("expvar quagmire.counters missing extraction activity: %v", vars.Quagmire.Counters)
	}

	pprofResp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer pprofResp.Body.Close()
	if pprofResp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", pprofResp.StatusCode)
	}
}

// TestDebugVarsPerServer: two servers in one process each serve their own
// registry on /debug/vars, whichever was built last, next to the
// process-wide variables expvar publishes.
func TestDebugVarsPerServer(t *testing.T) {
	tsA, pA := newPipelineServer(t, Options{})
	tsB, pB := newPipelineServer(t, Options{})
	pA.Obs().Counter("quagmire_test_server_total").Add(1)
	pB.Obs().Counter("quagmire_test_server_total").Add(2)
	for _, c := range []struct {
		name string
		url  string
		want float64
	}{{"A", tsA.URL, 1}, {"B", tsB.URL, 2}} {
		resp, err := http.Get(c.url + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		var vars struct {
			Cmdline  []string `json:"cmdline"`
			Quagmire struct {
				Counters map[string]float64 `json:"counters"`
			} `json:"quagmire"`
		}
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("server %s: decode /debug/vars: %v", c.name, err)
		}
		if got := vars.Quagmire.Counters["quagmire_test_server_total"]; got != c.want {
			t.Errorf("server %s: /debug/vars counter = %v, want %v", c.name, got, c.want)
		}
		if len(vars.Cmdline) == 0 {
			t.Errorf("server %s: /debug/vars lacks expvar's cmdline", c.name)
		}
	}
}
