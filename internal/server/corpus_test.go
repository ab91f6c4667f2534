package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// seedCorpus registers n small distinct policies through the public API.
func seedCorpus(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	texts := []string{corpus.Mini(),
		corpus.Generate(corpus.Config{Company: "Globex", Seed: 7, PracticeStatements: 6, DataRichness: 10, EntityRichness: 10}),
		corpus.Generate(corpus.Config{Company: "Initech", Seed: 11, PracticeStatements: 6, DataRichness: 10, EntityRichness: 10}),
	}
	for i := 0; i < n; i++ {
		var created map[string]any
		resp := doJSON(t, "POST", ts.URL+"/v1/policies",
			map[string]string{"name": fmt.Sprintf("pol%d", i), "text": texts[i%len(texts)]}, &created)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("seed %d: status %d (%v)", i, resp.StatusCode, created)
		}
	}
}

func TestCorpusStats(t *testing.T) {
	ts := newTestServer(t)
	seedCorpus(t, ts, 3)

	var out corpusStatsResponse
	resp := doJSON(t, "GET", ts.URL+"/v1/corpus/stats", nil, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if out.Policies != 3 || out.Analyzed != 3 || out.Quarantined != 0 {
		t.Fatalf("stats counts = %+v", out)
	}
	if out.Segments == 0 || out.Practices == 0 || out.Edges == 0 {
		t.Errorf("zero aggregate totals: %+v", out)
	}
	if out.DistinctDataTypes == 0 || out.DistinctEntities == 0 {
		t.Errorf("zero vocabulary sizes: %+v", out)
	}
	if len(out.TaxonomyOverlap) == 0 {
		t.Fatal("empty taxonomy overlap")
	}
	// Overlap is ranked: counts never increase down the list, and the
	// generated policies share core data types so the top term spans
	// more than one policy.
	for i := 1; i < len(out.TaxonomyOverlap); i++ {
		if out.TaxonomyOverlap[i].Policies > out.TaxonomyOverlap[i-1].Policies {
			t.Errorf("taxonomy overlap not sorted at %d: %+v", i, out.TaxonomyOverlap)
		}
	}
	if out.TaxonomyOverlap[0].Policies < 2 {
		t.Errorf("top overlap term spans %d policies, want >= 2", out.TaxonomyOverlap[0].Policies)
	}
	if len(out.TopVague) == 0 {
		t.Error("no vague conditions aggregated (Mini + generated policies contain them)")
	}
}

func TestCorpusStatsEmpty(t *testing.T) {
	ts := newTestServer(t)
	var out corpusStatsResponse
	resp := doJSON(t, "GET", ts.URL+"/v1/corpus/stats", nil, &out)
	if resp.StatusCode != http.StatusOK || out.Policies != 0 || out.Analyzed != 0 {
		t.Fatalf("empty stats = %d %+v", resp.StatusCode, out)
	}
}

// corpusQueryLines posts a corpus query and returns the parsed result
// rows and the summary from the NDJSON stream.
func corpusQueryLines(t *testing.T, ts *httptest.Server, q string) ([]corpusQueryLine, corpusQuerySummary) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": q})
	resp, err := http.Post(ts.URL+"/v1/corpus/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corpus query status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var rows []corpusQueryLine
	var sum corpusQuerySummary
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if sawSummary {
			t.Fatalf("line after summary: %s", sc.Text())
		}
		var wrapper struct {
			Summary *corpusQuerySummary `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &wrapper); err == nil && wrapper.Summary != nil {
			sum = *wrapper.Summary
			sawSummary = true
			continue
		}
		var row corpusQueryLine
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return rows, sum
}

func TestCorpusQueryStream(t *testing.T) {
	ts := newTestServer(t)
	seedCorpus(t, ts, 3)

	rows, sum := corpusQueryLines(t, ts, "Does Acme share my email address with advertising partners?")
	if len(rows) != 3 {
		t.Fatalf("got %d result rows, want 3", len(rows))
	}
	seen := map[string]bool{}
	for _, row := range rows {
		if row.ID == "" {
			t.Errorf("row missing id: %+v", row)
		}
		if seen[row.ID] {
			t.Errorf("duplicate row for %s", row.ID)
		}
		seen[row.ID] = true
		if row.Verdict == "" && row.Error == "" {
			t.Errorf("row has neither verdict nor error: %+v", row)
		}
	}
	if sum.Policies != 3 {
		t.Errorf("summary.policies = %d, want 3", sum.Policies)
	}
	if got := sum.Valid + sum.Invalid + sum.Unknown + sum.Errors; got != 3 {
		t.Errorf("summary verdict counts total %d, want 3 (%+v)", got, sum)
	}
	// Mini explicitly shares email addresses with advertising partners.
	if sum.Valid == 0 {
		t.Errorf("no VALID verdicts in sweep: %+v", sum)
	}
	if sum.Incomplete {
		t.Errorf("sweep marked incomplete: %+v", sum)
	}
}

func TestCorpusQueryValidation(t *testing.T) {
	ts := newTestServer(t)
	var out map[string]any
	if resp := doJSON(t, "POST", ts.URL+"/v1/corpus/query", map[string]string{}, &out); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query status = %d, want 400", resp.StatusCode)
	}
	// Empty corpus: a valid query streams just the summary.
	rows, sum := corpusQueryLines(t, ts, "Do you collect email addresses?")
	if len(rows) != 0 || sum.Policies != 0 {
		t.Errorf("empty-corpus sweep = %d rows, %+v", len(rows), sum)
	}
}

func TestListPoliciesPagination(t *testing.T) {
	ts := newTestServer(t)
	seedCorpus(t, ts, 3)

	get := func(params string) ([]map[string]any, *http.Response) {
		var list []map[string]any
		resp := doJSON(t, "GET", ts.URL+"/v1/policies"+params, nil, &list)
		return list, resp
	}

	all, resp := get("")
	if resp.StatusCode != http.StatusOK || len(all) != 3 {
		t.Fatalf("unpaginated list = %d items, status %d", len(all), resp.StatusCode)
	}
	if resp.Header.Get("X-Total-Count") != "3" {
		t.Errorf("X-Total-Count = %q, want 3", resp.Header.Get("X-Total-Count"))
	}

	page, resp := get("?offset=1&limit=1")
	if len(page) != 1 {
		t.Fatalf("offset=1&limit=1 returned %d items", len(page))
	}
	if resp.Header.Get("X-Total-Count") != "3" {
		t.Errorf("paginated X-Total-Count = %q, want 3", resp.Header.Get("X-Total-Count"))
	}
	if page[0]["id"] != all[1]["id"] {
		t.Errorf("page item = %v, want %v (deterministic order)", page[0]["id"], all[1]["id"])
	}

	if tail, _ := get("?offset=2"); len(tail) != 1 || tail[0]["id"] != all[2]["id"] {
		t.Errorf("offset=2 tail = %v", tail)
	}
	if empty, _ := get("?offset=99"); len(empty) != 0 {
		t.Errorf("offset past end returned %d items", len(empty))
	}
	for _, bad := range []string{"?offset=-1", "?limit=x", "?offset=1.5"} {
		resp, err := http.Get(ts.URL + "/v1/policies" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
	// Pagination must walk the corpus without gaps or overlap.
	var walked []any
	for off := 0; off < 3; off++ {
		page, _ := get(fmt.Sprintf("?offset=%d&limit=1", off))
		if len(page) != 1 {
			t.Fatalf("offset=%d limit=1 returned %d items", off, len(page))
		}
		walked = append(walked, page[0]["id"])
	}
	for i := range walked {
		if walked[i] != all[i]["id"] {
			t.Errorf("walked[%d] = %v, want %v", i, walked[i], all[i]["id"])
		}
	}
}

// goneWriter is a ResponseWriter whose client has gone: every body write
// fails once a short write timeout expires, and meanwhile the sweep's
// workers run ahead of the stream.
type goneWriter struct{ header http.Header }

func (w *goneWriter) Header() http.Header { return w.header }
func (w *goneWriter) WriteHeader(int)     {}
func (w *goneWriter) Write([]byte) (int, error) {
	time.Sleep(20 * time.Millisecond)
	return 0, errors.New("client gone")
}

// sweepGoroutines counts the goroutines running inside a corpus sweep.
func sweepGoroutines(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, "server.(*Server).forEachPolicy") {
			n++
		}
	}
	return n
}

// TestCorpusQueryAbortStopsSweep is the regression test for a leak: when
// the client went away mid-stream, handleCorpusQuery returned while its
// workers still sent into the result channel, so they and the dispatcher
// waiting for them blocked forever. Every sweep goroutine must now exit
// by the time an aborted request has returned.
func TestCorpusQueryAbortStopsSweep(t *testing.T) {
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
	st := store.NewMem(store.Options{})
	for i := 0; i < 40; i++ {
		if _, err := st.Create(fmt.Sprintf("mini-%d", i), mkStoreVersion(a, payload)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Options{Pipeline: p, Store: st, Corpus: CorpusConfig{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	for i := 0; i < 5; i++ {
		body := strings.NewReader(`{"query":"Does Acme share my email address with advertising partners?"}`)
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodPost, "/v1/corpus/query", body).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		s.handleCorpusQuery(&goneWriter{header: http.Header{}}, req)
		cancel() // as net/http does once the handler returns
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := sweepGoroutines(t); n > 0; n = sweepGoroutines(t) {
		if time.Now().After(deadline) {
			t.Fatalf("%d sweep goroutines still running after 5 aborted corpus queries", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
