package smt

import (
	"context"
	"fmt"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// triggerBase builds an Incremental with the axiom ∀x. p(x) → q(x) and n
// facts p(c0)..p(c<n-1>) under the trigger-based strategy.
func triggerBase(t *testing.T, n int) *Incremental {
	t.Helper()
	inc := NewIncremental(Limits{MaxInstantiations: 20000, MaxRounds: 6}, TriggerBased)
	axiom := fol.Forall("x", fol.Implies(fol.Pred("p", fol.Var("x")), fol.Pred("q", fol.Var("x"))))
	if err := inc.AssertBase(axiom); err != nil {
		t.Fatalf("AssertBase axiom: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := inc.AssertBase(fol.Pred("p", fol.Const(fmt.Sprintf("c%d", i)))); err != nil {
			t.Fatalf("AssertBase fact %d: %v", i, err)
		}
	}
	return inc
}

// TestTriggerIndexCostIsIncremental pins the O(new atoms) property of the
// per-round trigger index: each distinct ground atom enters the index
// exactly once over the life of the core, so re-solving (new rounds, new
// goals) must not re-index the existing atom set. The old implementation
// rebuilt a string-keyed index every round, making k rounds cost
// k × |atoms|; this test fails against that behavior.
func TestTriggerIndexCostIsIncremental(t *testing.T) {
	ctx := context.Background()
	const n = 24
	inc := triggerBase(t, n)

	// First solve instantiates the axiom for every p(ci) candidate and
	// indexes each distinct atom once: p(ci) and q(ci) for every i.
	res := inc.Solve(ctx, fol.Not(fol.Pred("q", fol.Const("c0"))))
	if res.Status != Unsat {
		t.Fatalf("first goal: want Unsat, got %v (%s)", res.Status, res.Reason)
	}
	opsAfterFirst := inc.IndexOps()
	if opsAfterFirst < n || opsAfterFirst > 4*n {
		t.Fatalf("first solve indexed %d atoms; want Θ(n)=Θ(%d)", opsAfterFirst, n)
	}

	// Subsequent solves reuse the index: every goal atom q(ci) is already
	// indexed via the axiom instances, so the per-solve index delta must be
	// O(1), independent of both the base size and the solve count.
	const extraSolves = 8
	for i := 1; i <= extraSolves; i++ {
		res := inc.Solve(ctx, fol.Not(fol.Pred("q", fol.Const(fmt.Sprintf("c%d", i)))))
		if res.Status != Unsat {
			t.Fatalf("goal %d: want Unsat, got %v (%s)", i, res.Status, res.Reason)
		}
		if res.Stats.Instantiations != 0 {
			t.Errorf("goal %d: %d new instantiations; base candidates must be matched at most once ever",
				i, res.Stats.Instantiations)
		}
	}
	delta := inc.IndexOps() - opsAfterFirst
	if delta > 2*extraSolves {
		t.Fatalf("%d re-solves grew the index by %d ops; want O(1) per solve, independent of the %d-atom index",
			extraSolves, delta, opsAfterFirst)
	}

	// Scaling: doubling the base roughly doubles the one-time indexing cost
	// (it stays proportional to distinct atoms, not rounds × atoms).
	incBig := triggerBase(t, 2*n)
	if res := incBig.Solve(ctx, fol.Not(fol.Pred("q", fol.Const("c0")))); res.Status != Unsat {
		t.Fatalf("big base: want Unsat, got %v", res.Status)
	}
	if got := incBig.IndexOps(); got > 3*opsAfterFirst {
		t.Fatalf("2x base indexed %d atoms vs %d for 1x; want ~linear scaling", got, opsAfterFirst)
	}
}

// TestIncrementalClauseReuse checks that the shared dedup table answers
// repeated ground clauses instead of growing the SAT core: two symmetric
// instantiation tuples of ∀x∀y. r(x,y) ∨ r(y,x) produce the same canonical
// clause, and the second must count as reused.
func TestIncrementalClauseReuse(t *testing.T) {
	ctx := context.Background()
	inc := NewIncremental(Limits{MaxInstantiations: 20000, MaxRounds: 4}, FullGrounding)
	sym := fol.Forall("x", fol.Forall("y",
		fol.Or(fol.Pred("r", fol.Var("x"), fol.Var("y")), fol.Pred("r", fol.Var("y"), fol.Var("x")))))
	if err := inc.AssertBase(sym, fol.Pred("p", fol.Const("a")), fol.Pred("p", fol.Const("b"))); err != nil {
		t.Fatalf("AssertBase: %v", err)
	}
	if res := inc.Solve(ctx, nil); res.Status != Sat {
		t.Fatalf("base alone: want Sat, got %v (%s)", res.Status, res.Reason)
	}
	m := inc.Metrics()
	// Tuples (a,b) and (b,a) canonicalize to the same clause; (a,a) and
	// (b,b) each shrink to a unit. At least one dedup hit is guaranteed.
	if m.ReusedClauses == 0 {
		t.Fatalf("symmetric instantiation produced no dedup hits; metrics %+v", m)
	}
	if m.InternedTerms == 0 || m.InternedAtoms == 0 {
		t.Fatalf("arena counters not populated: %+v", m)
	}
}

// TestIncrementalGoalIsolation checks goal retirement: an unsatisfiable
// goal must not contaminate later solves on the same core, and base-only
// solves stay Sat throughout.
func TestIncrementalGoalIsolation(t *testing.T) {
	ctx := context.Background()
	inc := NewIncremental(Limits{}, FullGrounding)
	if err := inc.AssertBase(fol.Pred("p", fol.Const("a"))); err != nil {
		t.Fatalf("AssertBase: %v", err)
	}
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
	for i, step := range sequence {
		res := inc.Solve(ctx, step.goal)
		if res.Status != step.want {
			t.Fatalf("step %d: want %v, got %v (%s)", i, step.want, res.Status, res.Reason)
		}
	}
	if m := inc.Metrics(); m.Solves != len(sequence) {
		t.Fatalf("Solves = %d, want %d", m.Solves, len(sequence))
	}
}

// TestIncrementalConds checks per-call assumed conditions: they hold for
// one Solve only.
func TestIncrementalConds(t *testing.T) {
	ctx := context.Background()
	inc := NewIncremental(Limits{}, FullGrounding)
	// base: cond → q
	if err := inc.AssertBase(fol.Implies(fol.UninterpretedPred("cond"), fol.Pred("q", fol.Const("a")))); err != nil {
		t.Fatalf("AssertBase: %v", err)
	}
	notQ := fol.Not(fol.Pred("q", fol.Const("a")))
	if res := inc.Solve(ctx, notQ); res.Status != Sat {
		t.Fatalf("¬q without cond: want Sat, got %v", res.Status)
	}
	if res := inc.Solve(ctx, notQ, fol.UninterpretedPred("cond")); res.Status != Unsat {
		t.Fatalf("¬q under cond: want Unsat, got %v", res.Status)
	}
	res := inc.Solve(ctx, notQ)
	if res.Status != Sat {
		t.Fatalf("¬q after cond retired: want Sat, got %v", res.Status)
	}
	if len(res.Placeholders) != 1 || res.Placeholders[0] != "cond" {
		t.Fatalf("placeholders = %v, want [cond]", res.Placeholders)
	}
}

// TestSatStepBudgetIsPerSolve is the regression test for the lifetime SAT
// step budget: the counter was never reset, so a long-lived core with a
// small budget decided its first solves and then answered every later one
// "SAT step budget exhausted". Each of these solves fits the budget on
// its own; all twelve must be decided, on an Incremental and on a Solver.
func TestSatStepBudgetIsPerSolve(t *testing.T) {
	const solves = 12
	lim := Limits{MaxSatSteps: 60}
	base := []*fol.Formula{fol.Forall("x", fol.Implies(fol.Pred("p", fol.Var("x")), fol.Pred("q", fol.Var("x"))))}
	for i := 0; i < solves; i++ {
		base = append(base, fol.Pred("p", fol.Const(fmt.Sprintf("c%d", i))))
	}
	goal := func(i int) *fol.Formula { return fol.Not(fol.Pred("q", fol.Const(fmt.Sprintf("c%d", i)))) }

	inc := NewIncremental(lim, FullGrounding)
	if err := inc.AssertBase(base...); err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	s.Limits = lim
	for _, f := range base {
		s.Assert(f)
	}
	for i := 0; i < solves; i++ {
		if res := inc.Solve(context.Background(), goal(i)); res.Status != Unsat {
			t.Errorf("incremental solve %d = %v (%s), want unsat", i, res.Status, res.Reason)
		}
		s.Push()
		s.Assert(goal(i))
		if res := s.CheckSat(); res.Status != Unsat {
			t.Errorf("solver check %d = %v (%s), want unsat", i, res.Status, res.Reason)
		}
		s.Pop()
	}
}
