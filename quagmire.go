// Package quagmire is the public API of the Privacy Quagmire reproduction:
// a pipeline that extracts structured data practices from natural-language
// privacy policies with an LLM, organizes them into dynamically induced
// hierarchies and an entity–data knowledge graph, and verifies
// natural-language compliance queries by compiling them to first-order
// logic and SMT-LIB — while preserving vague legal terms ("legitimate
// business purposes", "required by law") as explicit uninterpreted
// placeholders for human interpretation.
//
// Quickstart:
//
//	an, _ := quagmire.New(quagmire.Config{})
//	a, _ := an.Analyze(ctx, policyText)
//	res, _ := a.Ask(ctx, "Does Acme share my email address with advertisers?")
//	fmt.Println(res.Verdict, res.Placeholders)
package quagmire

import (
	"context"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/segment"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// Verdict is the three-valued outcome of a compliance query.
type Verdict = query.Verdict

// Query verdicts.
const (
	// Valid: the queried practice necessarily follows from the policy.
	Valid = query.Valid
	// Invalid: the queried practice does not follow from the policy.
	Invalid = query.Invalid
	// Unknown: the solver ran out of budget or the formula lies outside
	// its complete fragment; human judgment or a larger budget is needed.
	Unknown = query.Unknown
)

// Stats are the extraction statistics of a policy analysis (the paper's
// Table 1 metrics).
type Stats = kg.Stats

// QueryResult is the full output of one query: verdict, vocabulary
// translations, matched edges, the generated FOL formula and SMT-LIB
// script, and the uninterpreted ambiguity placeholders the verdict may
// hinge on.
type QueryResult = query.Result

// Diff describes a policy-version change at statement granularity.
type Diff = segment.Diff

// UpdateStats reports what a new policy version changed in the graph.
type UpdateStats = kg.UpdateStats

// SolverLimits bounds the SMT solver deterministically.
type SolverLimits = smt.Limits

// BatchResult is the outcome of one query in a batch verification.
type BatchResult = query.BatchItem

// SMTCacheStats reports the shared SMT result cache's hit/miss counters.
type SMTCacheStats = smt.CacheStats

// Config configures an Analyzer. The zero value selects the deterministic
// simulated LLM with caching, the default embedding model, and default
// solver limits.
type Config struct {
	// Model is the language model backing extraction and equivalence
	// checks. Nil selects the built-in deterministic simulated model.
	Model llm.Client
	// TaxonomyFilterThreshold, when positive, enables the
	// similarity-based taxonomy edge filter at that threshold.
	TaxonomyFilterThreshold float64
	// SolverLimits bounds Phase 3 verification.
	SolverLimits SolverLimits
	// Workers bounds Phase 1 segment-extraction fan-out and Phase 3 batch
	// verification; 0 selects runtime.GOMAXPROCS(0), 1 forces sequential
	// processing.
	Workers int
}

// Analyzer runs the three-phase pipeline.
type Analyzer struct {
	p *core.Pipeline
}

// New constructs an Analyzer.
func New(cfg Config) (*Analyzer, error) {
	p, err := core.New(core.Options{
		Client:                  cfg.Model,
		TaxonomyFilterThreshold: cfg.TaxonomyFilterThreshold,
		Limits:                  cfg.SolverLimits,
		Workers:                 cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Analyzer{p: p}, nil
}

// SMTCacheStats reports the analyzer's shared SMT result cache counters —
// hits are queries whose (sub)problems were answered without running the
// solver.
func (a *Analyzer) SMTCacheStats() SMTCacheStats { return a.p.SMTCacheStats() }

// Metrics is a point-in-time snapshot of every pipeline metric: counters,
// gauges and latency histograms for all three phases plus the SMT layer.
// Its Table method renders the per-phase breakdown the CLI's -stats flag
// prints.
type Metrics = obs.Snapshot

// Metrics snapshots the analyzer's observability registry. Every Analyze,
// Update, Ask and AskBatch call contributes; the snapshot is safe to take
// while work is in flight.
func (a *Analyzer) Metrics() Metrics { return a.p.Metrics() }

// SimulatedModel returns the deterministic built-in language model,
// wrapped with response caching, for use as Config.Model.
func SimulatedModel() llm.Client { return llm.NewCachingClient(llm.NewSim()) }

// EmbeddingModel returns the deterministic embedding model used for
// vocabulary translation.
func EmbeddingModel() *embed.Model { return embed.NewModel("text-embedding-sim") }

// Analysis is an analyzed policy: extraction, knowledge graph and query
// engine.
type Analysis struct {
	inner *core.Analysis
}

// Analyze runs Phases 1–2 over a policy text.
func (a *Analyzer) Analyze(ctx context.Context, policy string) (*Analysis, error) {
	inner, err := a.p.Analyze(ctx, policy)
	if err != nil {
		return nil, err
	}
	return &Analysis{inner: inner}, nil
}

// Update analyzes a new version of prev's policy: only changed statements
// are re-extracted, and the graph and hierarchies are built from the whole
// new extraction, as Analyze builds them.
func (a *Analyzer) Update(ctx context.Context, prev *Analysis, newPolicy string) (*Analysis, Diff, UpdateStats, error) {
	inner, diff, st, err := a.p.Update(ctx, prev.inner, newPolicy)
	if err != nil {
		return nil, diff, st, err
	}
	return &Analysis{inner: inner}, diff, st, nil
}

// Company returns the extracted organization name.
func (an *Analysis) Company() string { return an.inner.Extraction.Company }

// Stats returns the Table 1 extraction statistics.
func (an *Analysis) Stats() Stats { return an.inner.Stats() }

// Edges returns every extracted data-practice edge in the paper's
// "[actor]-action->[object]" rendering.
func (an *Analysis) Edges() []string {
	edges := an.inner.KG.ED.Edges()
	out := make([]string, len(edges))
	for i, e := range edges {
		out[i] = e.String()
	}
	return out
}

// Ask verifies a natural-language compliance query against the policy.
func (an *Analysis) Ask(ctx context.Context, question string) (*QueryResult, error) {
	return an.inner.Engine.Ask(ctx, question)
}

// AskBatch verifies many compliance queries concurrently over the
// analyzer's worker pool, sharing the SMT result cache so overlapping
// queries solve once. Results are returned in input order; per-query
// failures ride on the corresponding item.
func (an *Analysis) AskBatch(ctx context.Context, questions []string) ([]BatchResult, error) {
	return an.inner.Engine.AskBatch(ctx, questions)
}

// Practices returns the number of extracted data practices.
func (an *Analysis) Practices() int { return len(an.inner.Extraction.Practices) }

// VagueConditions returns the distinct vague condition fragments found in
// the policy — the terms a human must interpret.
func (an *Analysis) VagueConditions() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range an.inner.Extraction.Practices {
		for _, v := range p.VagueTerms {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Exploration enumerates vague-condition interpretations for one query.
type Exploration = query.Exploration

// Explore answers the query under every interpretation of its vague
// placeholder conditions using incremental solving (check-sat-assuming) —
// the explicit "which readings make this permissible" view.
func (an *Analysis) Explore(ctx context.Context, question string) (*Exploration, error) {
	return an.inner.Engine.Explore(ctx, question)
}
