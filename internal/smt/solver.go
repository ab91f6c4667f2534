// Package smt implements a from-scratch SMT solver for quantified formulas
// over uninterpreted functions (UF): a DPLL(T) loop combining the CDCL SAT
// core from internal/sat with a congruence-closure theory solver, plus
// budgeted ground quantifier instantiation, push/pop incremental scopes and
// check-sat-assuming — the feature set of CVC5 that the paper's pipeline
// relies on, with deterministic resource limits so the paper's timeout
// behaviour is reproducible.
package smt

import (
	"context"
	"sort"
	"strings"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/sat"
)

// Status is the three-valued outcome of an SMT check.
type Status int

// Check outcomes.
const (
	// Unknown means the solver exhausted a resource limit or the problem
	// lies outside its complete fragment.
	Unknown Status = iota
	// Sat means a model exists.
	Sat
	// Unsat means no model exists.
	Unsat
)

// String returns "sat", "unsat" or "unknown".
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Limits bounds solver effort. Zero values select defaults; the limits are
// deterministic (step-counted) so experiment results are reproducible.
type Limits struct {
	// MaxSatSteps caps SAT decisions+propagations per CheckSat.
	MaxSatSteps int64
	// MaxInstantiations caps quantifier instantiations per CheckSat.
	// Under RelevantGrounding, the default, it counts every substitution
	// tuple examined, whether its instance was added or skipped; under
	// FullGrounding and TriggerBased it counts the instances added.
	MaxInstantiations int
	// MaxRounds caps instantiation rounds per CheckSat.
	MaxRounds int
	// MaxTheoryLemmas caps DPLL(T) refinement iterations per CheckSat.
	MaxTheoryLemmas int
	// Timeout, when positive, aborts the check after the wall-clock
	// duration. Step limits are preferred for reproducibility.
	Timeout time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxSatSteps == 0 {
		l.MaxSatSteps = 5_000_000
	}
	if l.MaxInstantiations == 0 {
		l.MaxInstantiations = 50_000
	}
	if l.MaxRounds == 0 {
		l.MaxRounds = 3
	}
	if l.MaxTheoryLemmas == 0 {
		l.MaxTheoryLemmas = 2_000
	}
	return l
}

// Stats reports effort spent by the last CheckSat.
type Stats struct {
	// Instantiations counts ground instances this check generated; a
	// check on a core that earlier checks already grounded reports only
	// the new ones.
	Instantiations int
	// GroundClauses counts clauses this check handed to the SAT core.
	GroundClauses int
	// TheoryLemmas counts blocking clauses added by theory refutation.
	TheoryLemmas int
	// Rounds counts instantiation rounds.
	Rounds int
	// Atoms counts distinct ground atoms.
	Atoms int
	// SAT holds the boolean core's counters. They are cumulative over the
	// core's lifetime: a Solver shares its core across checks.
	SAT sat.Stats
	// Elapsed is the wall-clock duration of the check. For a Result
	// answered from a ResultCache (FromCache set) it is the lookup or
	// in-flight-wait time, not the original solve's duration.
	Elapsed time.Duration
	// FromCache marks a Result served by a ResultCache — either a stored
	// entry or a share of a concurrent in-flight solve — rather than a
	// fresh solver run.
	FromCache bool `json:",omitempty"`
}

// Result is the outcome of a CheckSat.
type Result struct {
	// Status is sat/unsat/unknown.
	Status Status
	// Reason explains Unknown results (budget kind) and is empty
	// otherwise.
	Reason string
	// Placeholders lists uninterpreted ambiguity predicates that occurred
	// in the problem; per the paper these mark where human judgment is
	// required regardless of the verdict.
	Placeholders []string
	// Model holds the truth values of nullary predicates in the found
	// model when Status == Sat (nil otherwise). For the pipeline these
	// are the vague-condition placeholders of the countermodel — showing
	// exactly which interpretations of the ambiguous terms defeat the
	// query.
	Model map[string]bool
	// Stats reports effort.
	Stats Stats
}

// Solver is an incremental SMT solver for quantified UF formulas.
// Assertions are grouped into scopes managed by Push/Pop.
//
// One interned ground core serves every check: assertions are clausified,
// interned and instantiated the first time a check sees them, and later
// checks add only the work that is new (fresh assertions, terms they bring
// into the universe). Each pushed scope's clauses carry a selector literal
// assumed while the scope is open; Pop retires the selector, so a popped
// scope's clauses never constrain later checks. Not safe for concurrent
// use.
type Solver struct {
	// Limits bounds effort per check; the zero value uses defaults.
	Limits Limits
	// Strategy selects the quantifier-instantiation scheme; the zero
	// value is RelevantGrounding. The first check fixes it for the
	// solver's ground core.
	Strategy InstStrategy

	scopes []scope
	g      *groundCore // built by the first check
}

// scope is one assertion level. fed counts the assertions already handed
// to the ground core, sel guards them there (0 for the base scope, which
// needs no guard), and err is the first clausification failure, which
// makes every check Unknown until the scope is popped.
type scope struct {
	asserts []*fol.Formula
	fed     int
	sel     sat.Lit
	err     error
	// placeholders names the scope's uninterpreted predicates.
	placeholders []string
}

// NewSolver returns a solver with one open scope.
func NewSolver() *Solver {
	return &Solver{scopes: []scope{{}}}
}

// Assert adds a sentence to the current scope. Free variables are
// implicitly universally quantified, following SMT-LIB convention for
// top-level clauses produced from prenex formulas.
func (s *Solver) Assert(f *fol.Formula) {
	sc := &s.scopes[len(s.scopes)-1]
	sc.asserts = append(sc.asserts, f)
	for _, p := range f.UninterpretedAtoms() {
		// Clone: a decoded script's names point into its source text,
		// which a cached Result must not keep alive.
		sc.placeholders = append(sc.placeholders, strings.Clone(p))
	}
}

// Push opens a new assertion scope.
func (s *Solver) Push() { s.scopes = append(s.scopes, scope{}) }

// Pop discards the most recent scope. Popping the base scope is a no-op.
func (s *Solver) Pop() {
	if len(s.scopes) <= 1 {
		return
	}
	top := s.scopes[len(s.scopes)-1]
	s.scopes = s.scopes[:len(s.scopes)-1]
	if top.sel != 0 {
		s.g.retire(top.sel)
	}
}

// Assertions returns all formulas currently asserted, in order.
func (s *Solver) Assertions() []*fol.Formula {
	var out []*fol.Formula
	for _, sc := range s.scopes {
		out = append(out, sc.asserts...)
	}
	return out
}

// CheckSat decides satisfiability of the conjunction of all assertions.
func (s *Solver) CheckSat() Result {
	return s.check(context.Background(), nil)
}

// CheckSatCtx is CheckSat with cancellation: the context is polled inside
// the instantiation and DPLL(T) refinement loops, so a cancelled caller
// (e.g. an aborted AskBatch) stops burning CPU promptly instead of
// running to the solver's own resource limits. A cancelled check returns
// Unknown with reason "canceled".
func (s *Solver) CheckSatCtx(ctx context.Context) Result {
	return s.check(ctx, nil)
}

// CheckSatAssuming decides satisfiability with the extra formulas assumed
// for this call only, mirroring SMT-LIB's check-sat-assuming. A nullary
// atom or its negation becomes a SAT assumption and costs no grounding;
// any other formula is grounded in a scope retired after the call.
func (s *Solver) CheckSatAssuming(assumptions ...*fol.Formula) Result {
	return s.check(context.Background(), assumptions)
}

// CheckSatAssumingCtx is CheckSatAssuming with cancellation (see
// CheckSatCtx).
func (s *Solver) CheckSatAssumingCtx(ctx context.Context, assumptions ...*fol.Formula) Result {
	return s.check(ctx, assumptions)
}

// canceledReason marks Unknown results caused by context cancellation.
const canceledReason = "canceled"

// check's result must be named: the deferred Elapsed stamp below writes
// to the return slot after every early return in this long function.
func (s *Solver) check(ctx context.Context, assumptions []*fol.Formula) (res Result) {
	start := time.Now()
	lim := s.Limits.withDefaults()
	deadline := time.Time{}
	if lim.Timeout > 0 {
		deadline = start.Add(lim.Timeout)
	}
	defer func() { res.Stats.Elapsed = time.Since(start) }()

	if ctx.Err() != nil {
		res.Status = Unknown
		res.Reason = canceledReason
		return res
	}
	placeholders := map[string]bool{}
	empty := len(assumptions) == 0
	for _, sc := range s.scopes {
		empty = empty && len(sc.asserts) == 0
		for _, p := range sc.placeholders {
			placeholders[p] = true
		}
	}
	if empty {
		res.Status = Sat
		return res
	}
	for _, f := range assumptions {
		for _, p := range f.UninterpretedAtoms() {
			placeholders[strings.Clone(p)] = true
		}
	}
	for p := range placeholders {
		res.Placeholders = append(res.Placeholders, p)
	}
	sort.Strings(res.Placeholders)

	// Hand the core whatever it has not seen yet: NNF -> prenex ->
	// Skolemize -> clauses with implicitly universally quantified
	// variables, every term and atom hash-consed into the core's arena.
	if s.g == nil {
		s.g = newGroundCore(s.Strategy)
	}
	g := s.g
	g.beginCheck(lim)
	clausesBefore := g.groundClauses
	var satAssumptions []sat.Lit
	for i := range s.scopes {
		sc := &s.scopes[i]
		if i > 0 && sc.sel == 0 && len(sc.asserts) > 0 {
			sc.sel = g.newSelector()
		}
		for ; sc.fed < len(sc.asserts); sc.fed++ {
			if sc.err == nil {
				sc.err = g.addFormula(sc.asserts[sc.fed], sc.sel)
			}
		}
		if sc.err != nil {
			res.Status = Unknown
			res.Reason = "clausification failed: " + sc.err.Error()
			return res
		}
		if sc.sel != 0 {
			satAssumptions = append(satAssumptions, sc.sel)
		}
	}
	var tmp sat.Lit // scope of assumptions that are not literals
	for _, f := range assumptions {
		if l, ok := g.literal(f); ok {
			satAssumptions = append(satAssumptions, l)
			continue
		}
		if tmp == 0 {
			tmp = g.newSelector()
			satAssumptions = append(satAssumptions, tmp)
			defer g.retire(tmp)
		}
		if err := g.addFormula(f, tmp); err != nil {
			res.Status = Unknown
			res.Reason = "clausification failed: " + err.Error()
			return res
		}
	}

	// Instantiation: ground the live non-ground clauses under the
	// selected strategy, continuing from where earlier checks stopped.
	var st callStats
	g.instantiate(ctx, lim, deadline, &st)
	res.Stats.Instantiations = st.count
	res.Stats.Rounds = st.rounds
	if ctx.Err() != nil {
		res.Status = Unknown
		res.Reason = canceledReason
		return res
	}
	res.Stats.GroundClauses = g.groundClauses - clausesBefore
	res.Stats.Atoms = g.atomCount()

	// DPLL(T) refinement loop.
	g.solveLoop(ctx, lim, deadline, &res, satAssumptions)
	if res.Model != nil {
		s.dropStaleAtoms(res.Model, assumptions)
	}
	return res
}

// dropStaleAtoms removes from a model the nullary atoms the checked
// problem does not mention: the core keeps variables for the atoms of
// popped scopes and of earlier checks' assumptions.
func (s *Solver) dropStaleAtoms(model map[string]bool, assumptions []*fol.Formula) {
	live := map[string]bool{}
	for _, f := range append(s.Assertions(), assumptions...) {
		markNullaryPreds(f, live)
	}
	for n := range model {
		if !live[n] {
			delete(model, n)
		}
	}
}

// literal maps a nullary atom or its negation to a SAT literal, the form
// in which check-sat-assuming passes assumptions without grounding them.
func (g *groundCore) literal(f *fol.Formula) (sat.Lit, bool) {
	neg := f.Op == fol.OpNot
	if neg {
		f = f.Sub[0]
	}
	if f.Op != fol.OpPred || len(f.Terms) != 0 {
		return 0, false
	}
	l := g.satVarOf(g.arena.InternAtom(f))
	if neg {
		l = l.Neg()
	}
	return l, true
}

// markNullaryPreds adds the names of f's nullary predicate atoms to set.
func markNullaryPreds(f *fol.Formula, set map[string]bool) {
	if f.Op == fol.OpPred && len(f.Terms) == 0 {
		set[f.Pred] = true
	}
	for _, sub := range f.Sub {
		markNullaryPreds(sub, set)
	}
}
