package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
)

func TestAnalysisCodecRoundTrip(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeAnalysis(orig)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh pipeline (fresh LLM cache) restores the analysis without
	// re-extracting — the restart path.
	p2, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := p2.DecodeAnalysis(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != orig.Stats() {
		t.Errorf("stats: %+v vs %+v", loaded.Stats(), orig.Stats())
	}
	if loaded.Extraction.Company != "Acme" {
		t.Errorf("company = %q", loaded.Extraction.Company)
	}
	// The rebuilt engine answers queries identically.
	for q, want := range map[string]query.Verdict{
		"Does Acme sell my personal information?":                     query.Invalid,
		"Does Acme share my email address with advertising partners?": query.Valid,
	} {
		res, err := loaded.Engine.Ask(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != want {
			t.Errorf("%q verdict = %s, want %s", q, res.Verdict, want)
		}
	}
}

func TestDecodedAnalysisSupportsIncrementalUpdate(t *testing.T) {
	// A restored analysis must be a full citizen: the incremental update
	// path (reuse the stored practices of unchanged statements) has to
	// work on it exactly as on a fresh one.
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeAnalysis(orig)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := p.DecodeAnalysis(data)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(corpus.Mini(),
		"We collect device identifiers automatically.",
		"We collect device identifiers and browsing history automatically.", 1)
	a2, diff, st, err := p.Update(context.Background(), loaded, edited)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) != 1 {
		t.Errorf("diff added = %d, want 1 (reuse across decode failed)", len(diff.Added))
	}
	if st.EdgesAdded == 0 {
		t.Errorf("update stats = %+v", st)
	}
	if !a2.KG.ED.HasNode("browsing history") {
		t.Error("new node missing after update on decoded analysis")
	}
}

func TestDecodeExtractionOnly(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := DecodeExtraction(data)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Company != "Acme" || len(ex.Practices) != len(a.Extraction.Practices) {
		t.Errorf("extraction: company %q, %d practices", ex.Company, len(ex.Practices))
	}
}

func TestDecodeRejectsBadPayloads(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DecodeAnalysis([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	// A payload from a future build must be rejected, not misread.
	future, _ := json.Marshal(map[string]any{"codec": CodecVersion + 1})
	if _, err := p.DecodeAnalysis(future); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Errorf("future codec err = %v", err)
	}
	// A structurally valid envelope missing components is incomplete.
	empty, _ := json.Marshal(map[string]any{"codec": 1})
	if _, err := p.DecodeAnalysis(empty); err == nil {
		t.Error("incomplete payload accepted")
	}
}
