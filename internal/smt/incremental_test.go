package smt

import (
	"fmt"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// These tests pin how a Solver reuses its one ground core across checks.
// A query script relies on each property: its main check, the check
// assuming the vague placeholders and the policy-alone check all run on
// one core, the negated goal scoped behind push/pop.

// checkInScope decides base ∧ goal with the goal in a pushed scope, then
// pops it, as a query script scopes its negated goal.
func checkInScope(s *Solver, goal *fol.Formula) Result {
	s.Push()
	s.Assert(goal)
	res := s.CheckSat()
	s.Pop()
	return res
}

// triggerSolver builds a Solver with the axiom ∀x. p(x) → q(x) and n facts
// p(c0)..p(c<n-1>) under the trigger-based strategy.
func triggerSolver(n int) *Solver {
	s := NewSolver()
	s.Limits = Limits{MaxInstantiations: 20000, MaxRounds: 6}
	s.Strategy = TriggerBased
	s.Assert(fol.Forall("x", fol.Implies(fol.Pred("p", fol.Var("x")), fol.Pred("q", fol.Var("x")))))
	for i := 0; i < n; i++ {
		s.Assert(fol.Pred("p", fol.Const(fmt.Sprintf("c%d", i))))
	}
	return s
}

// TestTriggerIndexCostIsIncremental pins the O(new atoms) property of the
// per-round trigger index: each distinct ground atom enters the index
// exactly once over the life of the core, so later checks (new rounds, new
// goals) must not re-index the existing atom set. The old implementation
// rebuilt a string-keyed index every round, making k rounds cost
// k × |atoms|; this test fails against that behavior.
func TestTriggerIndexCostIsIncremental(t *testing.T) {
	const n = 24
	s := triggerSolver(n)

	// The first check instantiates the axiom for every p(ci) candidate
	// and indexes each distinct atom once: p(ci) and q(ci) for every i.
	res := checkInScope(s, fol.Not(fol.Pred("q", fol.Const("c0"))))
	if res.Status != Unsat {
		t.Fatalf("first goal: want Unsat, got %v (%s)", res.Status, res.Reason)
	}
	opsAfterFirst := s.g.indexOps
	if opsAfterFirst < n || opsAfterFirst > 4*n {
		t.Fatalf("first check indexed %d atoms; want Θ(n)=Θ(%d)", opsAfterFirst, n)
	}

	// Later checks reuse the index: every goal atom q(ci) is already
	// indexed via the axiom instances, so the per-check index delta must
	// be O(1), independent of both the base size and the check count.
	const extraChecks = 8
	for i := 1; i <= extraChecks; i++ {
		res := checkInScope(s, fol.Not(fol.Pred("q", fol.Const(fmt.Sprintf("c%d", i)))))
		if res.Status != Unsat {
			t.Fatalf("goal %d: want Unsat, got %v (%s)", i, res.Status, res.Reason)
		}
		if res.Stats.Instantiations != 0 {
			t.Errorf("goal %d: %d new instantiations; base candidates must be matched at most once ever",
				i, res.Stats.Instantiations)
		}
	}
	delta := s.g.indexOps - opsAfterFirst
	if delta > 2*extraChecks {
		t.Fatalf("%d re-checks grew the index by %d ops; want O(1) per check, independent of the %d-atom index",
			extraChecks, delta, opsAfterFirst)
	}

	// Scaling: doubling the base roughly doubles the one-time indexing cost
	// (it stays proportional to distinct atoms, not rounds × atoms).
	big := triggerSolver(2 * n)
	if res := checkInScope(big, fol.Not(fol.Pred("q", fol.Const("c0")))); res.Status != Unsat {
		t.Fatalf("big base: want Unsat, got %v", res.Status)
	}
	if got := big.g.indexOps; got > 3*opsAfterFirst {
		t.Fatalf("2x base indexed %d atoms vs %d for 1x; want ~linear scaling", got, opsAfterFirst)
	}
}

// TestIncrementalClauseReuse checks that the dedup table answers repeated
// ground clauses instead of growing the SAT core: two symmetric
// instantiation tuples of ∀x∀y. r(x,y) ∨ r(y,x) produce the same canonical
// clause, and the second must count as reused.
func TestIncrementalClauseReuse(t *testing.T) {
	s := NewSolver()
	s.Limits = Limits{MaxInstantiations: 20000, MaxRounds: 4}
	s.Strategy = FullGrounding
	s.Assert(fol.Forall("x", fol.Forall("y",
		fol.Or(fol.Pred("r", fol.Var("x"), fol.Var("y")), fol.Pred("r", fol.Var("y"), fol.Var("x"))))))
	s.Assert(fol.Pred("p", fol.Const("a")))
	s.Assert(fol.Pred("p", fol.Const("b")))
	if res := s.CheckSat(); res.Status != Sat {
		t.Fatalf("base alone: want Sat, got %v (%s)", res.Status, res.Reason)
	}
	// Tuples (a,b) and (b,a) canonicalize to the same clause; (a,a) and
	// (b,b) each shrink to a unit. At least one dedup hit is guaranteed.
	if s.g.dedupHits == 0 {
		t.Fatalf("symmetric instantiation produced no dedup hits (%d ground clauses)", s.g.groundClauses)
	}
	if s.g.arena.NumTerms() == 0 || s.g.arena.NumAtoms() == 0 {
		t.Fatalf("arena not populated: %d terms, %d atoms", s.g.arena.NumTerms(), s.g.arena.NumAtoms())
	}
}

// TestIncrementalGoalIsolation checks goal retirement: an unsatisfiable
// goal must not contaminate later checks on the same core, and base-only
// checks stay Sat throughout.
func TestIncrementalGoalIsolation(t *testing.T) {
	s := NewSolver()
	s.Assert(fol.Pred("p", fol.Const("a")))
	contradiction := fol.Not(fol.Pred("p", fol.Const("a")))
	tautGoal := fol.Pred("p", fol.Const("a"))
	sequence := []struct {
		goal *fol.Formula
		want Status
	}{
		{nil, Sat},
		{contradiction, Unsat},
		{nil, Sat}, // the retired contradiction must not leak
		{tautGoal, Sat},
		{contradiction, Unsat}, // and Unsat is reproducible after a Sat
		{nil, Sat},
	}
	var core *groundCore
	for i, step := range sequence {
		var res Result
		if step.goal == nil {
			res = s.CheckSat()
		} else {
			res = checkInScope(s, step.goal)
		}
		if res.Status != step.want {
			t.Fatalf("step %d: want %v, got %v (%s)", i, step.want, res.Status, res.Reason)
		}
		if core == nil {
			core = s.g
		}
		if s.g != core {
			t.Fatalf("step %d answered on a new ground core", i)
		}
	}
}

// TestIncrementalConds checks assumed conditions: check-sat-assuming
// holds them for one check only.
func TestIncrementalConds(t *testing.T) {
	s := NewSolver()
	// base: cond → q
	s.Assert(fol.Implies(fol.UninterpretedPred("cond"), fol.Pred("q", fol.Const("a"))))
	notQ := fol.Not(fol.Pred("q", fol.Const("a")))
	if res := checkInScope(s, notQ); res.Status != Sat {
		t.Fatalf("¬q without cond: want Sat, got %v", res.Status)
	}
	s.Push()
	s.Assert(notQ)
	if res := s.CheckSatAssuming(fol.UninterpretedPred("cond")); res.Status != Unsat {
		t.Fatalf("¬q under cond: want Unsat, got %v", res.Status)
	}
	s.Pop()
	res := checkInScope(s, notQ)
	if res.Status != Sat {
		t.Fatalf("¬q after cond retired: want Sat, got %v", res.Status)
	}
	if len(res.Placeholders) != 1 || res.Placeholders[0] != "cond" {
		t.Fatalf("placeholders = %v, want [cond]", res.Placeholders)
	}
}

// TestSatStepBudgetIsPerSolve is the regression test for the lifetime SAT
// step budget: the counter was never reset, so a long-lived core with a
// small budget decided its first checks and then answered every later one
// "SAT step budget exhausted". Each of these checks fits the budget on
// its own; all twelve must be decided on one Solver.
func TestSatStepBudgetIsPerSolve(t *testing.T) {
	const checks = 12
	s := NewSolver()
	s.Limits = Limits{MaxSatSteps: 60}
	s.Assert(fol.Forall("x", fol.Implies(fol.Pred("p", fol.Var("x")), fol.Pred("q", fol.Var("x")))))
	for i := 0; i < checks; i++ {
		s.Assert(fol.Pred("p", fol.Const(fmt.Sprintf("c%d", i))))
	}
	for i := 0; i < checks; i++ {
		goal := fol.Not(fol.Pred("q", fol.Const(fmt.Sprintf("c%d", i))))
		if res := checkInScope(s, goal); res.Status != Unsat {
			t.Errorf("check %d = %v (%s), want unsat", i, res.Status, res.Reason)
		}
	}
}

// TestTheoryCheckFollowsLaterEqualities pins that the congruence closure's
// skip on equality-free cores is decided per check, not once per core: an
// equality asserted in a later scope, or assumed by a later check, must
// still be checked against p(a) ∧ ¬p(b).
func TestTheoryCheckFollowsLaterEqualities(t *testing.T) {
	a, b := fol.Const("a"), fol.Const("b")
	base := func() *Solver {
		s := NewSolver()
		s.Assert(fol.Pred("p", a))
		s.Assert(fol.Not(fol.Pred("p", b)))
		if res := s.CheckSat(); res.Status != Sat {
			t.Fatalf("base: want Sat, got %v (%s)", res.Status, res.Reason)
		}
		return s
	}

	s := base()
	s.Push()
	s.Assert(fol.Eq(a, b))
	if res := s.CheckSat(); res.Status != Unsat {
		t.Errorf("after (push 1)(assert (= a b)): want Unsat, got %v (%s)", res.Status, res.Reason)
	}
	s.Pop()
	if res := s.CheckSat(); res.Status != Sat {
		t.Errorf("after (pop 1): want Sat, got %v (%s)", res.Status, res.Reason)
	}

	s = base()
	if res := s.CheckSatAssuming(fol.Eq(a, b)); res.Status != Unsat {
		t.Errorf("assuming a = b: want Unsat, got %v (%s)", res.Status, res.Reason)
	}
}
