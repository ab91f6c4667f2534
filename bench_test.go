package quagmire

// This file is the benchmark harness required by DESIGN.md: one benchmark
// per paper table/figure/claim (T1–T3, E1–E6) plus the ablations (A1–A3).
// Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the host; the experiment *shapes* (who wins,
// where budgets run out) are asserted by the test suite and recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/experiments"
	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/server"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// T1 — Table 1: full extraction + graph construction per policy.
func BenchmarkTable1ExtractionTikTak(b *testing.B) {
	benchExtraction(b, corpus.TikTak())
}

// BenchmarkTable1ExtractionMetaBook is the Meta-scale variant of T1.
func BenchmarkTable1ExtractionMetaBook(b *testing.B) {
	if testing.Short() {
		b.Skip("large corpus")
	}
	benchExtraction(b, corpus.MetaBook())
}

func benchExtraction(b *testing.B, policy string) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		an, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		a, err := an.Analyze(ctx, policy)
		if err != nil {
			b.Fatal(err)
		}
		st := a.Stats()
		b.ReportMetric(float64(st.Edges), "edges")
		b.ReportMetric(float64(st.Nodes), "nodes")
	}
}

// T2/T3 — Tables 2–3: multi-edge statement decomposition.
func BenchmarkTable2Decomposition(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		edges := 0
		for _, r := range rows {
			edges += len(r.Edges)
		}
		b.ReportMetric(float64(edges), "edges")
	}
}

// BenchmarkTable3Decomposition is the MetaBook variant.
func BenchmarkTable3Decomposition(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// E1 — §4.2 similarity claims: embedding + top-k retrieval throughput.
func BenchmarkSimilarityClaims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.SimilarityClaims()
		if rows[0].Score <= 0 {
			b.Fatal("degenerate similarity")
		}
	}
}

// E2 — extraction scaling: policy-size sweep; per-word cost should stay
// roughly flat (linear scaling).
func BenchmarkExtractionScaling(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{50, 100, 200, 400} {
		text := corpus.Generate(corpus.Config{
			Company: "ScaleCo", Seed: 42, PracticeStatements: n,
			BoilerplateEvery: 1, DataRichness: 120, EntityRichness: 150,
		})
		b.Run(fmt.Sprintf("statements-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				an, err := New(Config{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := an.Analyze(ctx, text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3 — SMT clause-count sweep: the paper's solver-timeout result. Larger
// encodings exhaust the deterministic budget (status "unknown").
func BenchmarkSMTClauseSweep(b *testing.B) {
	limits := smt.Limits{MaxInstantiations: 20000, MaxSatSteps: 2_000_000, MaxRounds: 2}
	for _, n := range []int{2, 5, 25, 100, 400} {
		b.Run(fmt.Sprintf("edges-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := experiments.SMTSweep([]int{n}, limits)
				b.ReportMetric(float64(rows[0].Clauses), "clauses")
				if rows[0].Status == smt.Unknown {
					b.ReportMetric(1, "resource-out")
				} else {
					b.ReportMetric(0, "resource-out")
				}
			}
		})
	}
}

// E4 — incremental updates: model-call cost vs fraction of the policy
// edited.
func BenchmarkIncrementalUpdate(b *testing.B) {
	ctx := context.Background()
	for _, frac := range []float64{0.01, 0.10, 0.50} {
		b.Run(fmt.Sprintf("edited-%.0f%%", frac*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.IncrementalSweep(ctx, []float64{frac})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rows[0].LLMCallsIncremental), "llm-calls")
				b.ReportMetric(float64(rows[0].LLMCallsFull), "full-calls")
			}
		})
	}
}

// BenchmarkUpdateChain: 800 one-sentence edits of Mini, each an Update of
// the version before that replaces the sentence the last edit added with
// one naming a new data type and a new recipient. A version's hierarchies
// hold only its own terms, so the cost of an edit stays flat in the
// chain's length: it reports the mean over edits 1–100 and over edits
// 701–800.
func BenchmarkUpdateChain(b *testing.B) {
	const edits, window = 800, 100
	ctx := context.Background()
	var early, late time.Duration
	for i := 0; i < b.N; i++ {
		an, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		prev, err := an.Analyze(ctx, corpus.Mini())
		if err != nil {
			b.Fatal(err)
		}
		for e := 1; e <= edits; e++ {
			text := fmt.Sprintf("%s\nWe share your term%d records with vendor%d partners.\n", corpus.Mini(), e, e)
			start := time.Now()
			next, _, _, err := an.Update(ctx, prev, text)
			if err != nil {
				b.Fatal(err)
			}
			switch took := time.Since(start); {
			case e <= window:
				early += took
			case e > edits-window:
				late += took
			}
			prev = next
		}
	}
	b.ReportMetric(float64(early.Nanoseconds())/float64(window*b.N), "ns/edit-1-100")
	b.ReportMetric(float64(late.Nanoseconds())/float64(window*b.N), "ns/edit-701-800")
}

// E5 — PolicyLint-style contradiction analysis over a policy fleet.
func BenchmarkContradictions(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Contradictions(ctx, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sum.Apparent), "apparent")
		b.ReportMetric(float64(sum.Exceptions), "exceptions")
	}
}

// E6 — end-to-end query verification (unsat⇒VALID mapping).
func BenchmarkQueryVerdicts(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Verdicts(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Want != r.Got {
				b.Fatalf("verdict drift: %q want %s got %s", r.Question, r.Want, r.Got)
			}
		}
	}
}

// newMiniEngine builds a query engine over the Mini policy for ablations.
func newMiniEngine(b *testing.B) *query.Engine {
	b.Helper()
	ctx := context.Background()
	an, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	a, err := an.Analyze(ctx, corpus.Mini())
	if err != nil {
		b.Fatal(err)
	}
	return query.NewEngine(a.inner.KG, llm.NewCachingClient(llm.NewSim()), embed.NewModel("text-embedding-sim"))
}

// A1 — ablation: hierarchy closure vs exact-match-only answering. The
// subsumption query only succeeds with the hierarchy enabled.
func BenchmarkAblationHierarchy(b *testing.B) {
	eng := newMiniEngine(b)
	ctx := context.Background()
	p := llm.ParamSet{Sender: "Acme", Action: "share", DataType: "contact information", Receiver: "advertising partner"}
	for _, noH := range []bool{false, true} {
		name := "with-hierarchy"
		if noH {
			name = "exact-only"
		}
		b.Run(name, func(b *testing.B) {
			eng.NoHierarchy = noH
			valid := 0
			for i := 0; i < b.N; i++ {
				res, err := eng.AskParams(ctx, p)
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict == query.Valid {
					valid++
				}
			}
			b.ReportMetric(float64(valid)/float64(b.N), "valid-rate")
		})
	}
}

// A2 — ablation: SciBERT-style taxonomy edge filter threshold sweep.
func BenchmarkAblationTaxonomyFilter(b *testing.B) {
	ctx := context.Background()
	for _, threshold := range []float64{0, 0.15, 0.5} {
		b.Run(fmt.Sprintf("threshold-%.2f", threshold), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an, err := New(Config{TaxonomyFilterThreshold: threshold})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := an.Analyze(ctx, corpus.Mini()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A3 — ablation: FOL simplification before encoding (the paper's proposed
// mitigation for solver blow-up).
func BenchmarkAblationSimplify(b *testing.B) {
	eng := newMiniEngine(b)
	ctx := context.Background()
	p := llm.ParamSet{Sender: "Acme", Action: "share", DataType: "email address", Receiver: "advertising partner"}
	for _, simplify := range []bool{true, false} {
		name := "simplified"
		if !simplify {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			eng.SimplifyFOL = simplify
			for i := 0; i < b.N; i++ {
				res, err := eng.AskParams(ctx, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.FormulaSize), "formula-size")
			}
		})
	}
}

// Whole-policy vs subgraph encoding (the §4.4 bottleneck claim).
func BenchmarkWholePolicyEncoding(b *testing.B) {
	eng := newMiniEngine(b)
	ctx := context.Background()
	p := llm.ParamSet{Sender: "Acme", Action: "share", DataType: "email address"}
	for _, whole := range []bool{false, true} {
		name := "subgraph"
		if whole {
			name = "whole-policy"
		}
		b.Run(name, func(b *testing.B) {
			eng.WholePolicy = whole
			for i := 0; i < b.N; i++ {
				res, err := eng.AskParams(ctx, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.FormulaSize), "formula-size")
			}
		})
	}
}

// A4 — ablation: full grounding vs trigger-based (E-matching) vs the
// served relevant grounding on the pipeline encoding shape.
func BenchmarkAblationInstStrategy(b *testing.B) {
	limits := smt.Limits{MaxInstantiations: 20000, MaxSatSteps: 2_000_000, MaxRounds: 2}
	for _, strategy := range []smt.InstStrategy{smt.FullGrounding, smt.TriggerBased, smt.RelevantGrounding} {
		b.Run(strategy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := experiments.SMTSweepStrategy([]int{50}, limits, strategy)
				b.ReportMetric(float64(rows[0].Instantiations), "instantiations")
				b.ReportMetric(float64(rows[0].Clauses), "clauses")
			}
		})
	}
}

// Concurrent extraction throughput: worker-pool fan-out vs sequential on
// the TikTak-scale corpus.
func BenchmarkConcurrentExtraction(b *testing.B) {
	text := corpus.Generate(corpus.Config{
		Company: "ParCo", Seed: 3, PracticeStatements: 200,
		BoilerplateEvery: 1, DataRichness: 100, EntityRichness: 100,
	})
	ctx := context.Background()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := extract.New(llm.NewSim())
				e.Workers = workers
				if _, err := e.ExtractPolicy(ctx, text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// batchQueries is the multi-query verification workload: distinct
// questions against the Mini policy, so no two batch items collapse into
// one solver problem unless the cache is shared across repeats.
var batchQueries = []string{
	"Does Acme share my email address with advertising partners?",
	"Does Acme collect my device identifiers?",
	"Does Acme sell my personal information?",
	"Does Acme share my usage data with service providers?",
	"Does Acme collect my email address?",
	"Does Acme share my precise location with advertising partners?",
	"Does Acme use my contact information?",
	"Does Acme share my browsing history with analytics providers?",
}

// Parallel-vs-sequential batch verification (Phase 3): workers > 1 must
// beat workers = 1 on a multi-query workload. The engine carries no result
// cache, so every query pays the full solver cost on every iteration and
// the comparison isolates the worker pool.
func BenchmarkBatchVerification(b *testing.B) {
	ctx := context.Background()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			eng := newMiniEngine(b)
			eng.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items, err := eng.AskBatch(ctx, batchQueries)
				if err != nil {
					b.Fatal(err)
				}
				for _, it := range items {
					if it.Err != nil {
						b.Fatal(it.Err)
					}
				}
			}
			b.ReportMetric(float64(len(batchQueries)), "queries/op")
		})
	}
}

// SMT result cache effectiveness: the same batch re-verified against a
// shared cache skips the solver on every repeat. Reported hit/miss
// counters come straight from the cache.
func BenchmarkBatchVerificationCached(b *testing.B) {
	ctx := context.Background()
	eng := newMiniEngine(b)
	eng.Workers = 4
	eng.Cache = smt.NewResultCache(0)
	// Warm the cache once so every timed iteration is all hits.
	if _, err := eng.AskBatch(ctx, batchQueries); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := eng.AskBatch(ctx, batchQueries)
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			if it.Err != nil {
				b.Fatal(it.Err)
			}
		}
	}
	b.StopTimer()
	st := eng.Cache.Stats()
	if st.Hits == 0 {
		b.Fatal("repeated batches should hit the SMT result cache")
	}
	b.ReportMetric(float64(st.Hits), "cache-hits")
	b.ReportMetric(float64(st.Misses), "cache-misses")
}

// HTTP round-trip cost of a query through the full server stack.
func BenchmarkServerQuery(b *testing.B) {
	p, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Options{Pipeline: p})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/policies", "application/json",
		strings.NewReader(fmt.Sprintf(`{"text":%q}`, corpus.Mini())))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	body := `{"question":"Does Acme collect my device identifiers?"}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/policies/p1/query", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkStageBreakdown runs the full pipeline — analyze plus a
// concurrent verification batch — and reports per-stage means from the
// analyzer's metrics Snapshot, the programmatic face of the observability
// layer (the same data /metrics and -stats expose).
func BenchmarkStageBreakdown(b *testing.B) {
	ctx := context.Background()
	an, err := New(Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := an.Analyze(ctx, corpus.Mini())
		if err != nil {
			b.Fatal(err)
		}
		items, err := a.AskBatch(ctx, batchQueries)
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			if it.Err != nil {
				b.Fatal(it.Err)
			}
		}
	}
	b.StopTimer()
	snap := an.Metrics()
	report := func(metric, unit string) {
		h, ok := snap.Histograms[metric]
		if !ok || h.Count == 0 {
			b.Fatalf("missing stage metric %s in snapshot", metric)
		}
		b.ReportMetric(h.Sum/float64(h.Count)*1e9, unit)
	}
	report(`quagmire_pipeline_phase_seconds{phase="extract"}`, "ns/extract")
	report(`quagmire_pipeline_phase_seconds{phase="graph"}`, "ns/graph")
	report(`quagmire_query_phase_seconds{phase="translate"}`, "ns/translate")
	report(`quagmire_query_phase_seconds{phase="solve"}`, "ns/solve")
	if n := snap.Counters["quagmire_smt_cache_misses_total"]; n == 0 {
		b.Fatal("stage breakdown ran no solver work")
	}
}
