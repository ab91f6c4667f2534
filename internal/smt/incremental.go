package smt

import (
	"context"
	"sort"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/sat"
)

// IncrementalMetrics is a snapshot of the reuse counters of an Incremental
// solver — the numbers that justify keeping one core alive across queries.
type IncrementalMetrics struct {
	// InternedTerms / InternedAtoms count distinct hash-consed objects in
	// the solver's arena.
	InternedTerms int
	InternedAtoms int
	// ReusedClauses counts ground clauses that were requested again (by a
	// later goal or instantiation round) and answered by the dedup table
	// instead of re-entering the SAT core.
	ReusedClauses int
	// GroundClauses counts distinct clauses handed to the SAT core over
	// the solver's lifetime.
	GroundClauses int
	// Instantiations counts distinct ground instances generated over the
	// solver's lifetime.
	Instantiations int
	// Solves counts Solve calls answered on the shared core.
	Solves int
	// LearnedRetained is the number of learned clauses currently kept in
	// the boolean core (reused by the next Solve).
	LearnedRetained int
}

// Incremental is a long-lived SMT solver that keeps one interned ground
// core alive across queries. Base assertions are clausified, hash-consed
// and grounded once; each Solve scopes its goal behind a fresh selector
// literal and re-solves the shared boolean core under that assumption.
// Terms, atoms, ground clauses, quantifier instantiations, learned clauses
// and variable activities all carry over, so a batch of queries against
// the same base pays the encoding cost once.
//
// Soundness of goal retirement: a goal's clauses stay in the core guarded
// by its selector; the unit ¬selector added when its Solve returns
// satisfies them vacuously, so they never constrain later queries. An
// Incremental solver is not safe for concurrent use; callers serialize
// access.
type Incremental struct {
	// Limits bounds effort per Solve call; the zero value uses defaults.
	Limits Limits
	// Strategy selects the quantifier-instantiation scheme; fixed at
	// construction.
	Strategy InstStrategy

	g            *groundCore
	placeholders map[string]bool
	baseErr      error
	solves       int
}

// NewIncremental returns an empty incremental solver using the given
// limits and instantiation strategy.
func NewIncremental(lim Limits, strategy InstStrategy) *Incremental {
	return &Incremental{
		Limits:       lim,
		Strategy:     strategy,
		g:            newGroundCore(strategy),
		placeholders: map[string]bool{},
	}
}

// AssertBase adds permanent assertions (clausified and interned
// immediately; grounded lazily at the next Solve). A clausification error
// is returned now and also poisons future Solve calls, mirroring check's
// "clausification failed" Unknown.
func (inc *Incremental) AssertBase(fs ...*fol.Formula) error {
	for _, f := range fs {
		inc.notePlaceholders(f)
		if err := inc.g.addFormula(f, 0); err != nil {
			inc.baseErr = err
			return err
		}
	}
	return nil
}

func (inc *Incremental) notePlaceholders(f *fol.Formula) {
	for _, u := range f.UninterpretedAtoms() {
		inc.placeholders[u] = true
	}
}

// Solve decides satisfiability of base ∧ goal ∧ conds. The goal and the
// extra per-call conditions live behind a selector assumption valid for
// this call only; the base encoding and everything learned is shared with
// every other Solve on this receiver. A nil goal solves the base alone.
func (inc *Incremental) Solve(ctx context.Context, goal *fol.Formula, conds ...*fol.Formula) (res Result) {
	start := time.Now()
	lim := inc.Limits.withDefaults()
	deadline := time.Time{}
	if lim.Timeout > 0 {
		deadline = start.Add(lim.Timeout)
	}
	defer func() { res.Stats.Elapsed = time.Since(start) }()

	inc.solves++
	g := inc.g
	g.beginCheck(lim)

	if ctx.Err() != nil {
		res.Status = Unknown
		res.Reason = canceledReason
		return res
	}
	if inc.baseErr != nil {
		res.Status = Unknown
		res.Reason = "clausification failed: " + inc.baseErr.Error()
		return res
	}

	scoped := conds
	if goal != nil {
		scoped = append([]*fol.Formula{goal}, conds...)
	}
	var satAssumptions []sat.Lit
	if len(scoped) > 0 {
		s := g.newSelector()
		defer g.retire(s)
		for _, f := range scoped {
			inc.notePlaceholders(f)
			if err := g.addFormula(f, s); err != nil {
				res.Status = Unknown
				res.Reason = "clausification failed: " + err.Error()
				return res
			}
		}
		satAssumptions = append(satAssumptions, s)
	}
	for p := range inc.placeholders {
		res.Placeholders = append(res.Placeholders, p)
	}
	sort.Strings(res.Placeholders)

	clausesBefore := g.groundClauses
	var st callStats
	g.instantiate(ctx, lim, deadline, &st)
	res.Stats.Instantiations = st.count
	res.Stats.Rounds = st.rounds
	if ctx.Err() != nil {
		res.Status = Unknown
		res.Reason = canceledReason
		return res
	}
	// GroundClauses reports this call's contribution; cumulative totals
	// live in Metrics.
	res.Stats.GroundClauses = g.groundClauses - clausesBefore
	res.Stats.Atoms = g.atomCount()

	g.solveLoop(ctx, lim, deadline, &res, satAssumptions)
	return res
}

// Metrics returns the reuse counters accumulated so far.
func (inc *Incremental) Metrics() IncrementalMetrics {
	return IncrementalMetrics{
		InternedTerms:   inc.g.arena.NumTerms(),
		InternedAtoms:   inc.g.arena.NumAtoms(),
		ReusedClauses:   inc.g.dedupHits,
		GroundClauses:   inc.g.groundClauses,
		Instantiations:  inc.g.instTotal,
		Solves:          inc.solves,
		LearnedRetained: inc.g.core.NumLearned(),
	}
}

// IndexOps reports cumulative trigger-index insertions (each distinct
// ground atom is indexed exactly once, ever — the O(new atoms) property
// the regression test pins down).
func (inc *Incremental) IndexOps() int { return inc.g.indexOps }
