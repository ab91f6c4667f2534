package query

import (
	"context"
	"sort"
	"sync"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// sharedState holds the engine's long-lived incremental solve core (see
// Engine.SharedCore). The mutex serializes AskBatch workers: the smt
// incremental solver is single-threaded, and serializing here is the
// point — the batch shares one interned encoding instead of rebuilding it
// per query.
type sharedState struct {
	mu          sync.Mutex
	inc         *smt.Incremental
	baseTerms   map[string]bool // data terms covered by the base subtype facts
	policyUnsat *bool           // memoized base-alone contradiction check
}

// ensureSharedCoreLocked builds the whole-policy ground core on first use,
// or restores it from a persisted CoreImage when one was attached (codec
// v2 payloads): the interned arena and base clauses load positionally
// instead of being re-derived from the knowledge graph. baseTerms are
// recomputed from the edges either way — they are a cheap index, not part
// of the solver state. A restore failure (corrupted or version-skewed
// image) falls back to the full build. Callers hold e.shared.mu.
func (e *Engine) ensureSharedCoreLocked() {
	if e.shared.inc != nil {
		return
	}
	edges := e.KG.ED.Edges()
	termList := dataTermList(edges, "")
	e.shared.baseTerms = make(map[string]bool, len(termList))
	for _, t := range termList {
		e.shared.baseTerms[t] = true
	}
	if e.PreloadCore != nil {
		if inc, err := smt.NewIncrementalFromImage(e.Limits, smt.FullGrounding, e.PreloadCore); err == nil {
			e.shared.inc = inc
			e.Obs.Counter("quagmire_ground_core_restores_total").Inc()
			return
		}
		e.Obs.Counter("quagmire_ground_core_restore_failures_total").Inc()
	}
	placeholderSet := map[string]bool{}
	facts := e.practiceFacts(edges, placeholderSet)
	facts = append(facts, e.subtypeFacts(termList)...)
	facts = append(facts, subtypeAxioms()...)
	inc := smt.NewIncremental(e.Limits, smt.FullGrounding)
	// A clausification error poisons the core; every Solve then reports
	// Unknown with the reason, mirroring the one-shot solver.
	_ = inc.AssertBase(facts...)
	e.shared.inc = inc
	e.Obs.Counter("quagmire_ground_core_builds_total").Inc()
}

// ExportCoreImage returns the persisted form of the shared solver core,
// building it first if no query has warmed it yet. Nil when the engine
// runs per-query subgraph solving (no SharedCore) — there is no long-lived
// core to export.
func (e *Engine) ExportCoreImage() *smt.CoreImage {
	if !e.SharedCore {
		return nil
	}
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	e.ensureSharedCoreLocked()
	return e.shared.inc.Image()
}

// sharedGoal builds the per-query scoped formula: subtype facts linking
// the query's data term into the base hierarchy (when it is not already an
// edge target) plus the negated goal.
func (e *Engine) sharedGoal(actor, action, data, other string) *fol.Formula {
	var parts []*fol.Formula
	if data != "" && !e.shared.baseTerms[data] && !e.NoHierarchy {
		baseList := make([]string, 0, len(e.shared.baseTerms))
		for t := range e.shared.baseTerms {
			baseList = append(baseList, t)
		}
		sort.Strings(baseList)
		for _, t := range baseList {
			if t == data {
				continue
			}
			if e.KG.DataH.Subsumes(t, data) {
				parts = append(parts, fol.Pred("subtype", fol.Const(sym(data)), fol.Const(sym(t))))
			}
			if e.KG.DataH.Subsumes(data, t) {
				parts = append(parts, fol.Pred("subtype", fol.Const(sym(t)), fol.Const(sym(data))))
			}
		}
	}
	parts = append(parts, fol.Not(queryGoal(actor, action, data, other)))
	if len(parts) == 1 {
		return parts[0]
	}
	return fol.And(parts...)
}

// observeSharedLocked exports the core's reuse counters. Callers hold
// e.shared.mu.
func (e *Engine) observeSharedLocked() {
	e.Obs.Counter("quagmire_incremental_solves_total").Inc()
	if e.Obs == nil {
		return
	}
	m := e.shared.inc.Metrics()
	e.Obs.Gauge("quagmire_arena_interned_terms").Set(float64(m.InternedTerms))
	e.Obs.Gauge("quagmire_arena_interned_atoms").Set(float64(m.InternedAtoms))
	e.Obs.Gauge("quagmire_core_reused_clauses").Set(float64(m.ReusedClauses))
	e.Obs.Gauge("quagmire_core_ground_clauses").Set(float64(m.GroundClauses))
	e.Obs.Gauge("quagmire_core_learned_retained").Set(float64(m.LearnedRetained))
}

// sharedSolve answers one query (optionally under assumed placeholder
// conditions) on the engine's shared incremental core.
func (e *Engine) sharedSolve(ctx context.Context, actor, action, data, other string, conds []string) (smt.Result, error) {
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	e.ensureSharedCoreLocked()
	goal := e.sharedGoal(actor, action, data, other)
	condFs := make([]*fol.Formula, len(conds))
	for i, p := range conds {
		condFs[i] = fol.UninterpretedPred(p)
	}
	res := e.shared.inc.Solve(ctx, goal, condFs...)
	e.observeSharedLocked()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// sharedPolicyAloneUnsat checks (once per engine) whether the base policy
// encoding is contradictory on its own.
func (e *Engine) sharedPolicyAloneUnsat(ctx context.Context) bool {
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	e.ensureSharedCoreLocked()
	if e.shared.policyUnsat == nil {
		r := e.shared.inc.Solve(ctx, nil)
		e.observeSharedLocked()
		if ctx.Err() != nil {
			return false // don't memoize a canceled check
		}
		v := r.Status == smt.Unsat
		e.shared.policyUnsat = &v
	}
	return *e.shared.policyUnsat
}
