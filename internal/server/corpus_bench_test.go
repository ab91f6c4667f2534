package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// mkStoreVersion pins an analysis into a store version the same way the
// create handler does.
func mkStoreVersion(a *core.Analysis, payload []byte) store.Version {
	return store.Version{
		VersionMeta: store.VersionMeta{Company: a.Extraction.Company, Stats: a.VersionStats()},
		Payload:     payload,
	}
}

// BenchmarkCorpusQuery measures a full cross-policy fan-out through the
// HTTP stack: one POST /v1/corpus/query sweeping every policy and
// streaming NDJSON verdicts. Corpus size via
// QUAGMIRE_CORPUS_BENCH_POLICIES (default 6 to keep CI fast).
func BenchmarkCorpusQuery(b *testing.B) {
	n := 6
	if s := os.Getenv("QUAGMIRE_CORPUS_BENCH_POLICIES"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 1 {
			b.Fatalf("bad QUAGMIRE_CORPUS_BENCH_POLICIES %q", s)
		}
	}
	p, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Options{Pipeline: p})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		text := corpus.Generate(corpus.Config{
			Company: fmt.Sprintf("Bench%d", i), Seed: int64(i + 1),
			PracticeStatements: 8, DataRichness: 12, EntityRichness: 12,
		})
		a, err := p.Analyze(ctx, text)
		if err != nil {
			b.Fatal(err)
		}
		// Index the engine before timing, as BuildEngine does for a
		// stored policy, so every iteration times the fan-out alone.
		a.Engine.Warm()
		payload, err := core.EncodeAnalysis(a)
		if err != nil {
			b.Fatal(err)
		}
		pol, err := s.store.Create(fmt.Sprintf("bench-%d", i), mkStoreVersion(a, payload))
		if err != nil {
			b.Fatal(err)
		}
		s.engines.install(&engineCell{id: pol.ID, n: pol.Versions, built: true, analysis: a})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{"query": "Do you share email addresses with advertising partners?"})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/corpus/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		lines := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			lines++
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if lines != n+1 { // n results + summary
			b.Fatalf("stream had %d lines, want %d", lines, n+1)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "policies/s")
}
