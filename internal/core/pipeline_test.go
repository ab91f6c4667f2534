package core

import (
	"context"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
)

func TestAnalyzeMiniPolicy(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	if a.Extraction.Company != "Acme" {
		t.Errorf("company = %q", a.Extraction.Company)
	}
	st := a.Stats()
	if st.Edges == 0 || st.Entities == 0 || st.DataTypes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	res, err := a.Engine.Ask(context.Background(), "Does Acme share my email address with advertising partners?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != query.Valid {
		t.Errorf("verdict = %s", res.Verdict)
	}
}

func TestIncrementalUpdatePipeline(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(corpus.Mini(),
		"We collect device identifiers automatically.",
		"We collect device identifiers and browsing history automatically.", 1)
	a2, diff, st, err := p.Update(context.Background(), a1, edited)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) != 1 {
		t.Errorf("diff added = %d", len(diff.Added))
	}
	if st.EdgesAdded == 0 {
		t.Errorf("update stats = %+v", st)
	}
	if !a2.KG.ED.HasNode("browsing history") {
		t.Error("new node missing after update")
	}
	// Queries still work after an update.
	res, err := a2.Engine.Ask(context.Background(), "Does Acme collect my browsing history?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != query.Valid {
		t.Errorf("post-update verdict = %s", res.Verdict)
	}
}

func TestUpdateDoesNotMutatePrevAnalysis(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	before := a1.Stats()
	edited := strings.Replace(corpus.Mini(),
		"We collect device identifiers automatically.",
		"We collect device identifiers and browsing history automatically.", 1)
	a2, _, _, err := p.Update(context.Background(), a1, edited)
	if err != nil {
		t.Fatal(err)
	}
	if a2.KG == a1.KG {
		t.Fatal("update must not alias the previous analysis's graph")
	}
	if after := a1.Stats(); after != before {
		t.Errorf("previous analysis mutated by update: %+v -> %+v", before, after)
	}
	if a1.KG.ED.HasNode("browsing history") {
		t.Error("new node leaked into the previous graph")
	}
	// The old engine still answers against the old graph.
	res, err := a1.Engine.Ask(context.Background(), "Does Acme collect my device identifiers?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != query.Valid {
		t.Errorf("pre-update engine verdict = %s", res.Verdict)
	}
}

func TestPipelineAskBatchSharesCache(t *testing.T) {
	p, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	qs := []string{
		"Does Acme share my email address with advertising partners?",
		"Does Acme collect my device identifiers?",
		"Does Acme share my email address with advertising partners?",
	}
	items, err := a.Engine.AskBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("query %d: %v", i, it.Err)
		}
	}
	if items[0].Result.Verdict != items[2].Result.Verdict {
		t.Errorf("repeated query verdicts diverged: %s vs %s", items[0].Result.Verdict, items[2].Result.Verdict)
	}
	if st := p.SMTCacheStats(); st.Hits == 0 {
		t.Errorf("repeated query should hit the pipeline's SMT cache: %+v", st)
	}
}

func TestTaxonomyFilterOption(t *testing.T) {
	p, err := New(Options{TaxonomyFilterThreshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.KG.DataH.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFullCorpusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale test")
	}
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tik, err := p.Analyze(context.Background(), corpus.TikTak())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := p.Analyze(context.Background(), corpus.MetaBook())
	if err != nil {
		t.Fatal(err)
	}
	ts, ms := tik.Stats(), meta.Stats()
	// The Table 1 qualitative shape: hundreds of edges for TikTak,
	// thousands for MetaBook, MetaBook 2.5-4.5x TikTak on each metric.
	if ts.Edges < 500 || ts.Edges > 1500 {
		t.Errorf("TikTak edges = %d, want ~1000", ts.Edges)
	}
	if ms.Edges < 2500 || ms.Edges > 5000 {
		t.Errorf("MetaBook edges = %d, want ~3800", ms.Edges)
	}
	for name, ratio := range map[string]float64{
		"nodes":     float64(ms.Nodes) / float64(ts.Nodes),
		"edges":     float64(ms.Edges) / float64(ts.Edges),
		"entities":  float64(ms.Entities) / float64(ts.Entities),
		"datatypes": float64(ms.DataTypes) / float64(ts.DataTypes),
	} {
		if ratio < 2 || ratio > 5 {
			t.Errorf("MetaBook/TikTak %s ratio = %.2f, want 2-5", name, ratio)
		}
	}
}
