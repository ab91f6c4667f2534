// Package core orchestrates the full three-phase pipeline of Algorithm 1:
// Phase 1 representation extraction, Phase 2 hierarchical graph
// construction, Phase 3 semantic query verification — over any llm.Client
// and embedding model. Analyses serialize through a versioned codec
// (EncodeAnalysis/DecodeAnalysis) so the policy store can persist full
// version history and rebuild query engines after a restart.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/segment"
	"github.com/privacy-quagmire/quagmire/internal/smt"
	"github.com/privacy-quagmire/quagmire/internal/store"
	"github.com/privacy-quagmire/quagmire/internal/taxonomy"
)

// Options configures a pipeline.
type Options struct {
	// Client is the language model; defaults to a cached SimLLM.
	Client llm.Client
	// TaxonomyFilter enables the SciBERT-style similarity filter with the
	// given threshold (0 disables).
	TaxonomyFilterThreshold float64
	// Limits bounds the SMT solver for Phase 3.
	Limits smt.Limits
	// Workers bounds both Phase 1 segment-extraction fan-out and Phase 3
	// batch verification; 0 selects runtime.GOMAXPROCS(0), 1 forces
	// sequential processing.
	Workers int
	// SMTCacheSize bounds the shared SMT result cache (entries); 0 selects
	// the default, negative disables caching.
	SMTCacheSize int
	// Obs is the metrics registry threaded through every phase; nil
	// creates a fresh registry (observability is always on — a registry
	// nobody scrapes costs a few atomic adds).
	Obs *obs.Registry
}

// Pipeline runs Algorithm 1.
type Pipeline struct {
	client    llm.Client
	model     *embed.Model
	extractor *extract.Extractor
	kgBuilder *kg.Builder
	limits    smt.Limits
	workers   int
	smtCache  *smt.ResultCache
	obs       *obs.Registry
}

// New constructs a pipeline from options.
func New(opts Options) (*Pipeline, error) {
	client := opts.Client
	if client == nil {
		client = llm.NewCachingClient(llm.NewSim())
	}
	model := embed.NewModel("text-embedding-sim")
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tb := &taxonomy.Builder{Client: client, Obs: reg}
	if opts.TaxonomyFilterThreshold > 0 {
		tb.Filter = embed.NewModel("scibert-sim")
		tb.FilterThreshold = opts.TaxonomyFilterThreshold
	}
	extractor := extract.New(client)
	extractor.Workers = opts.Workers
	extractor.Obs = reg
	p := &Pipeline{
		client:    client,
		model:     model,
		extractor: extractor,
		kgBuilder: kg.NewBuilder(tb),
		limits:    opts.Limits,
		workers:   opts.Workers,
		obs:       reg,
	}
	if opts.SMTCacheSize >= 0 {
		p.smtCache = smt.NewResultCache(opts.SMTCacheSize)
		// The cache keeps its own counters; collect them pull-style so
		// scrape results are always current without double bookkeeping.
		stat := func(pick func(smt.CacheStats) float64) func() float64 {
			cache := p.smtCache
			return func() float64 { return pick(cache.Stats()) }
		}
		reg.CounterFunc("quagmire_smt_cache_hits_total", stat(func(s smt.CacheStats) float64 { return float64(s.Hits) }))
		reg.CounterFunc("quagmire_smt_cache_misses_total", stat(func(s smt.CacheStats) float64 { return float64(s.Misses) }))
		reg.CounterFunc("quagmire_smt_cache_suppressed_total", stat(func(s smt.CacheStats) float64 { return float64(s.Suppressed) }))
		reg.CounterFunc("quagmire_smt_cache_evictions_total", stat(func(s smt.CacheStats) float64 { return float64(s.Evictions) }))
		reg.GaugeFunc("quagmire_smt_cache_entries", stat(func(s smt.CacheStats) float64 { return float64(s.Entries) }))
	}
	return p, nil
}

// Limits returns the SMT solver limits the pipeline's engines answer
// questions with.
func (p *Pipeline) Limits() smt.Limits { return p.limits }

// Obs returns the pipeline's metrics registry (never nil).
func (p *Pipeline) Obs() *obs.Registry { return p.obs }

// Metrics snapshots every pipeline metric for programmatic consumers
// (benchmarks, the CLI's -stats table).
func (p *Pipeline) Metrics() obs.Snapshot { return p.obs.Snapshot() }

// SMTCacheStats reports the shared SMT result cache's hit/miss counters;
// zero-valued when caching is disabled.
func (p *Pipeline) SMTCacheStats() smt.CacheStats {
	if p.smtCache == nil {
		return smt.CacheStats{}
	}
	return p.smtCache.Stats()
}

// newEngine builds a query engine over a graph with the pipeline's limits,
// worker pool and shared SMT cache applied.
func (p *Pipeline) newEngine(k *kg.KnowledgeGraph) *query.Engine {
	e := query.NewEngine(k, p.client, p.model)
	e.Limits = p.limits
	e.Workers = p.workers
	e.Cache = p.smtCache
	e.Obs = p.obs
	return e
}

// Analysis is the result of running Phases 1–2 over one policy version,
// ready to answer Phase 3 queries.
type Analysis struct {
	// Extraction is the Phase 1 output.
	Extraction *extract.Extraction
	// KG is the Phase 2 output.
	KG *kg.KnowledgeGraph
	// Engine answers queries (Phase 3).
	Engine *query.Engine
}

// Stats returns the Table 1 metrics of the analysis.
func (a *Analysis) Stats() kg.Stats { return a.KG.Stats() }

// VersionStats pins the analysis's shape into the version metadata it is
// stored under, which is what every policy listing renders.
func (a *Analysis) VersionStats() store.VersionStats {
	st := a.Stats()
	return store.VersionStats{
		Nodes: st.Nodes, Edges: st.Edges, Entities: st.Entities,
		DataTypes: st.DataTypes,
		Segments:  len(a.Extraction.Segments),
		Practices: len(a.Extraction.Practices),
	}
}

// Analyze runs Phases 1 and 2 over a policy text and prepares the query
// engine, which embeds the graph's vocabulary on its first question.
func (p *Pipeline) Analyze(ctx context.Context, policy string) (*Analysis, error) {
	phase1 := time.Now()
	ex, err := p.extractor.ExtractPolicy(ctx, policy)
	if err != nil {
		return nil, fmt.Errorf("core: phase 1: %w", err)
	}
	p.obs.Histogram("quagmire_pipeline_phase_seconds", obs.TimeBuckets, "phase", "extract").ObserveSince(phase1)
	return p.build(ctx, ex)
}

// Update analyzes a new version of prev's policy. Phase 1 re-extracts
// only the statements the edit changed; Phase 2 builds the graph and
// hierarchies from the whole new extraction, as Analyze does, so the new
// version encodes exactly as a fresh analysis of its text. The previous
// analysis is never mutated, so readers (e.g. concurrent server requests)
// can keep querying prev while the new version is built. The stats
// compare the two versions' graphs.
func (p *Pipeline) Update(ctx context.Context, prev *Analysis, newPolicy string) (*Analysis, segment.Diff, kg.UpdateStats, error) {
	phase1 := time.Now()
	ex, diff, err := p.extractor.ReExtract(ctx, prev.Extraction, newPolicy)
	if err != nil {
		return nil, diff, kg.UpdateStats{}, fmt.Errorf("core: incremental phase 1: %w", err)
	}
	p.obs.Histogram("quagmire_pipeline_phase_seconds", obs.TimeBuckets, "phase", "extract").ObserveSince(phase1)
	a, err := p.build(ctx, ex)
	if err != nil {
		return nil, diff, kg.UpdateStats{}, err
	}
	return a, diff, kg.Compare(prev.KG, a.KG, diff), nil
}

// build runs Phase 2 over an extraction and attaches the query engine.
func (p *Pipeline) build(ctx context.Context, ex *extract.Extraction) (*Analysis, error) {
	phase2 := time.Now()
	k, err := p.kgBuilder.Build(ctx, ex)
	if err != nil {
		return nil, fmt.Errorf("core: phase 2: %w", err)
	}
	p.obs.Histogram("quagmire_pipeline_phase_seconds", obs.TimeBuckets, "phase", "graph").ObserveSince(phase2)
	a := &Analysis{Extraction: ex, KG: k}
	a.Engine = p.newEngine(k)
	return a, nil
}
