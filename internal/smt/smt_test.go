package smt

import (
	"fmt"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// ccNodes interns ground terms into a fresh arena and the solver's
// congruence closure, returning one node per term.
func ccNodes(terms ...fol.Term) (*ccInt, []int) {
	arena := fol.NewArena()
	cc := newCCInt(arena)
	nodes := make([]int, len(terms))
	for i, t := range terms {
		nodes[i] = cc.nodeOfTerm(arena.InternTerm(t))
	}
	return cc, nodes
}

func TestCCBasics(t *testing.T) {
	cc, n := ccNodes(fol.Const("a"), fol.Const("b"), fol.Const("c"))
	a, b, c := n[0], n[1], n[2]
	if cc.equal(a, b) {
		t.Error("fresh constants equal")
	}
	cc.merge(a, b)
	cc.merge(b, c)
	if !cc.equal(a, c) {
		t.Error("transitivity failed")
	}
}

func TestCCCongruence(t *testing.T) {
	a, b := fol.Const("a"), fol.Const("b")
	cc, n := ccNodes(a, b, fol.App("f", a), fol.App("f", b))
	if cc.equal(n[2], n[3]) {
		t.Error("f(a)=f(b) before a=b")
	}
	cc.merge(n[0], n[1])
	if !cc.equal(n[2], n[3]) {
		t.Error("congruence f(a)=f(b) not propagated")
	}
}

func TestCCNestedCongruence(t *testing.T) {
	a, b := fol.Const("a"), fol.Const("b")
	cc, n := ccNodes(a, b, fol.App("g", fol.App("f", a)), fol.App("g", fol.App("f", b)))
	cc.merge(n[0], n[1])
	if !cc.equal(n[2], n[3]) {
		t.Error("nested congruence g(f(a))=g(f(b)) not propagated")
	}
}

// TestCCInternSharing: identical terms are one class from the start, and
// a predicate application never shares a class with the function
// application of the same symbol and arguments.
func TestCCInternSharing(t *testing.T) {
	fab := fol.App("f", fol.Const("a"), fol.Const("b"))
	cc, n := ccNodes(fab, fab, fol.Const("a"), fol.Const("b"))
	if !cc.equal(n[0], n[1]) {
		t.Error("identical terms interned apart")
	}
	pred := cc.app(ccKindPred, cc.arena.Sym("f"), []int{n[2], n[3]})
	if cc.equal(pred, n[0]) {
		t.Error("predicate f(a,b) shares a class with function f(a,b)")
	}
}

func check(t *testing.T, f *fol.Formula, want Status) Result {
	t.Helper()
	s := NewSolver()
	s.Assert(f)
	res := s.CheckSat()
	if res.Status != want {
		t.Fatalf("CheckSat(%s) = %v (%s), want %v", f, res.Status, res.Reason, want)
	}
	return res
}

func TestGroundPropositional(t *testing.T) {
	p, q := fol.Pred("p"), fol.Pred("q")
	check(t, fol.And(fol.Or(p, q), fol.Not(p)), Sat)
	check(t, fol.And(p, fol.Not(p)), Unsat)
}

func TestGroundEquality(t *testing.T) {
	a, b, c := fol.Const("a"), fol.Const("b"), fol.Const("c")
	// a=b ∧ b=c ∧ a≠c is unsat.
	check(t, fol.And(fol.Eq(a, b), fol.Eq(b, c), fol.Not(fol.Eq(a, c))), Unsat)
	// a=b ∧ b≠c is sat.
	check(t, fol.And(fol.Eq(a, b), fol.Not(fol.Eq(b, c))), Sat)
}

func TestFunctionCongruence(t *testing.T) {
	a, b := fol.Const("a"), fol.Const("b")
	fa, fb := fol.App("f", a), fol.App("f", b)
	// a=b ∧ f(a)≠f(b) unsat.
	check(t, fol.And(fol.Eq(a, b), fol.Not(fol.Eq(fa, fb))), Unsat)
	// f(a)=f(b) ∧ a≠b sat (f may not be injective).
	check(t, fol.And(fol.Eq(fa, fb), fol.Not(fol.Eq(a, b))), Sat)
	// a=b ∧ g(f(a))≠g(f(b)) unsat: congruence propagates through nesting.
	check(t, fol.And(fol.Eq(a, b), fol.Not(fol.Eq(fol.App("g", fa), fol.App("g", fb)))), Unsat)
	check(t, fol.Not(fol.Eq(fol.App("g", fa), fol.App("g", fb))), Sat)
}

func TestPredicateCongruence(t *testing.T) {
	a, b := fol.Const("a"), fol.Const("b")
	// a=b ∧ p(a) ∧ ¬p(b) unsat.
	check(t, fol.And(fol.Eq(a, b), fol.Pred("p", a), fol.Not(fol.Pred("p", b))), Unsat)
	// p(a) ∧ ¬p(b) sat.
	check(t, fol.And(fol.Pred("p", a), fol.Not(fol.Pred("p", b))), Sat)
}

func TestUniversalInstantiation(t *testing.T) {
	// ∀x p(x) ∧ ¬p(a) unsat.
	f := fol.And(
		fol.Forall("x", fol.Pred("p", fol.Var("x"))),
		fol.Not(fol.Pred("p", fol.Const("a"))),
	)
	check(t, f, Unsat)
}

func TestModusPonensQuantified(t *testing.T) {
	// ∀x (user(x) -> share(x)) ∧ user(a) ∧ ¬share(a) unsat.
	f := fol.And(
		fol.Forall("x", fol.Implies(fol.Pred("user", fol.Var("x")), fol.Pred("share", fol.Var("x")))),
		fol.Pred("user", fol.Const("a")),
		fol.Not(fol.Pred("share", fol.Const("a"))),
	)
	check(t, f, Unsat)
}

func TestExistentialWitness(t *testing.T) {
	// ∃x p(x) is sat (via Skolem constant).
	res := check(t, fol.Exists("x", fol.Pred("p", fol.Var("x"))), Sat)
	if res.Stats.GroundClauses == 0 {
		t.Error("no ground clauses recorded")
	}
}

func TestValidityByNegation(t *testing.T) {
	// Validity check of ∀x(p(x)->q(x)) ∧ p(a) -> q(a): assert negation, expect unsat.
	premise := fol.And(
		fol.Forall("x", fol.Implies(fol.Pred("p", fol.Var("x")), fol.Pred("q", fol.Var("x")))),
		fol.Pred("p", fol.Const("a")),
	)
	goal := fol.Pred("q", fol.Const("a"))
	check(t, fol.And(premise, fol.Not(goal)), Unsat)
	// Invalid query: sat (countermodel exists, EPR fragment so Sat is definitive).
	badGoal := fol.Pred("q", fol.Const("b"))
	check(t, fol.And(premise, fol.Not(badGoal)), Sat)
}

func TestUninterpretedPlaceholderSurfaced(t *testing.T) {
	f := fol.And(
		fol.Or(fol.Pred("share", fol.Const("x1")), fol.UninterpretedPred("required_by_law")),
		fol.Not(fol.Pred("share", fol.Const("x1"))),
	)
	s := NewSolver()
	s.Assert(f)
	res := s.CheckSat()
	if res.Status != Sat {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if len(res.Placeholders) != 1 || res.Placeholders[0] != "required_by_law" {
		t.Errorf("placeholders = %v", res.Placeholders)
	}
}

func TestPushPop(t *testing.T) {
	s := NewSolver()
	p := fol.Pred("p")
	s.Assert(p)
	s.Push()
	s.Assert(fol.Not(p))
	if res := s.CheckSat(); res.Status != Unsat {
		t.Fatalf("inner scope: %v", res.Status)
	}
	s.Pop()
	if res := s.CheckSat(); res.Status != Sat {
		t.Fatalf("after pop: %v", res.Status)
	}
	// Popping base scope is a no-op.
	s.Pop()
	if res := s.CheckSat(); res.Status != Sat {
		t.Fatal("base scope lost")
	}
}

func TestCheckSatAssuming(t *testing.T) {
	s := NewSolver()
	p := fol.Pred("p")
	s.Assert(fol.Implies(p, fol.Pred("q")))
	res := s.CheckSatAssuming(p, fol.Not(fol.Pred("q")))
	if res.Status != Unsat {
		t.Fatalf("assuming p,¬q: %v", res.Status)
	}
	// Assumptions do not persist.
	if res := s.CheckSat(); res.Status != Sat {
		t.Fatalf("after assumptions: %v", res.Status)
	}
}

func TestEmptySolver(t *testing.T) {
	if res := NewSolver().CheckSat(); res.Status != Sat {
		t.Errorf("empty problem: %v", res.Status)
	}
}

func TestResourceOutOnLargeQuantifiedProblem(t *testing.T) {
	// Many quantified clauses over many constants with a tiny budget must
	// produce Unknown — the paper's timeout behaviour.
	var parts []*fol.Formula
	for i := 0; i < 20; i++ {
		p := fol.Pred(fmtSprintf("p%d", i), fol.Var("x"))
		q := fol.Pred(fmtSprintf("p%d", (i+1)%20), fol.Var("x"))
		parts = append(parts, fol.Forall("x", fol.Or(fol.Not(p), q)))
	}
	for i := 0; i < 30; i++ {
		parts = append(parts, fol.Pred("p0", fol.Const(fmtSprintf("c%d", i))))
	}
	s := NewSolver()
	s.Limits = Limits{MaxInstantiations: 50, MaxRounds: 1, MaxSatSteps: 100}
	s.Assert(fol.And(parts...))
	res := s.CheckSat()
	if res.Status != Unknown {
		t.Fatalf("tiny budget should give Unknown, got %v", res.Status)
	}
	if res.Reason == "" {
		t.Error("Unknown without reason")
	}
}

func TestIncompleteFragmentReportsUnknownNotSat(t *testing.T) {
	// ∀x ∃y p(x,y): Skolem function makes the fragment incomplete; a
	// "model" must be reported as unknown, not sat.
	f := fol.Forall("x", fol.Exists("y", fol.Pred("p", fol.Var("x"), fol.Var("y"))))
	s := NewSolver()
	s.Assert(fol.And(f, fol.Pred("q", fol.Const("a"))))
	res := s.CheckSat()
	if res.Status == Sat {
		t.Fatalf("non-EPR sat answer should be Unknown, got %v", res.Status)
	}
}

func TestRunScriptEndToEnd(t *testing.T) {
	// A question's script: ∀x. user(x) → share(tiktok, x) and user(alice)
	// entail share(tiktok, alice).
	script := `(set-logic UF)
(set-option :produce-models true)
(declare-sort U 0)
(declare-const alice U)
(declare-const tiktok U)
(declare-fun share (U U) Bool)
(declare-fun user (U) Bool)
(assert (and (forall ((x U)) (=> (user x) (share tiktok x))) (user alice)))
(push 1)
(assert (not (share tiktok alice)))
(check-sat)
(pop 1)
(check-sat)
`
	results, err := RunScript(script, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// The goal follows (unsat), and the policy alone is consistent (sat).
	if len(results) != 2 || results[0].Status != Unsat || results[1].Status != Sat {
		t.Fatalf("script checks = %+v, want unsat then sat", results)
	}
}

func TestRunScriptPushPop(t *testing.T) {
	src := `
(declare-fun p () Bool)
(assert p)
(push 1)
(assert (not p))
(check-sat)
(pop 1)
(check-sat)`
	results, err := RunScript(src, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Status != Unsat || results[1].Status != Sat {
		t.Errorf("results = %v, %v", results[0].Status, results[1].Status)
	}
}

func TestRunScriptNoCheckSat(t *testing.T) {
	results, err := RunScript("(declare-fun p () Bool)(assert p)", Limits{})
	if err != nil || len(results) != 0 {
		t.Errorf("script without checks = %v, %v; want no results, no error", results, err)
	}
}

// solveOne runs a one-check script and returns its only result.
func solveOne(src string) (Result, error) {
	results, err := RunScript(src, Limits{})
	if err != nil {
		return Result{}, err
	}
	if len(results) != 1 {
		return Result{}, fmt.Errorf("%d results, want 1", len(results))
	}
	return results[0], nil
}

func TestFormatResult(t *testing.T) {
	r := Result{Status: Unknown, Reason: "timeout", Placeholders: []string{"required_by_law"}}
	out := FormatResult(r)
	for _, want := range []string{"unknown", "timeout", "required_by_law"} {
		if !containsStr(out, want) {
			t.Errorf("FormatResult missing %q: %s", want, out)
		}
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Error("Status.String broken")
	}
}

func fmtSprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }

func TestDistinctThroughScript(t *testing.T) {
	// distinct + equality chain: a,b,c pairwise distinct but a=c is unsat.
	src := `
(declare-sort U 0)
(declare-const a U)
(declare-const b U)
(declare-const c U)
(assert (distinct a b c))
(assert (= a c))
(check-sat)`
	res, err := solveOne(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unsat {
		t.Fatalf("distinct+eq = %v (%s)", res.Status, res.Reason)
	}
	// Without the equality it is satisfiable.
	src2 := `
(declare-sort U 0)
(declare-const a U)
(declare-const b U)
(declare-const c U)
(assert (distinct a b c))
(check-sat)`
	res, err = solveOne(src2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Sat {
		t.Fatalf("distinct alone = %v (%s)", res.Status, res.Reason)
	}
}

func TestCountermodelExposed(t *testing.T) {
	s := NewSolver()
	s.Assert(fol.Or(
		fol.UninterpretedPred("cond_a"),
		fol.UninterpretedPred("cond_b"),
	))
	s.Assert(fol.Not(fol.UninterpretedPred("cond_a")))
	res := s.CheckSat()
	if res.Status != Sat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Model == nil {
		t.Fatal("no model")
	}
	if res.Model["cond_a"] != false || res.Model["cond_b"] != true {
		t.Errorf("model = %v", res.Model)
	}
}

func TestTriggerInstantiationUnsat(t *testing.T) {
	// Modus ponens resolves with trigger-based instantiation too: the
	// trigger user(x) matches the ground fact user(a).
	f := fol.And(
		fol.Forall("x", fol.Implies(fol.Pred("user", fol.Var("x")), fol.Pred("share", fol.Var("x")))),
		fol.Pred("user", fol.Const("a")),
		fol.Not(fol.Pred("share", fol.Const("a"))),
	)
	s := NewSolver()
	s.Strategy = TriggerBased
	s.Assert(f)
	res := s.CheckSat()
	if res.Status != Unsat {
		t.Fatalf("trigger modus ponens = %v (%s)", res.Status, res.Reason)
	}
}

func TestTriggerChainedInstantiation(t *testing.T) {
	// Chained rules need a second round: p(a), ∀x p(x)->q(x), ∀x q(x)->r(x), ¬r(a).
	f := fol.And(
		fol.Pred("p", fol.Const("a")),
		fol.Forall("x", fol.Implies(fol.Pred("p", fol.Var("x")), fol.Pred("q", fol.Var("x")))),
		fol.Forall("x", fol.Implies(fol.Pred("q", fol.Var("x")), fol.Pred("r", fol.Var("x")))),
		fol.Not(fol.Pred("r", fol.Const("a"))),
	)
	s := NewSolver()
	s.Strategy = TriggerBased
	s.Assert(f)
	if res := s.CheckSat(); res.Status != Unsat {
		t.Fatalf("chained triggers = %v (%s)", res.Status, res.Reason)
	}
}

func TestTriggerSatDegradesToUnknown(t *testing.T) {
	// A satisfiable quantified problem: trigger instantiation must not
	// claim Sat (refutation-incomplete fragment).
	f := fol.And(
		fol.Forall("x", fol.Implies(fol.Pred("p", fol.Var("x")), fol.Pred("q", fol.Var("x")))),
		fol.Pred("p", fol.Const("a")),
	)
	s := NewSolver()
	s.Strategy = TriggerBased
	s.Assert(f)
	res := s.CheckSat()
	if res.Status == Unsat {
		t.Fatalf("satisfiable problem reported unsat")
	}
	if res.Status == Sat {
		t.Fatalf("trigger strategy must not claim Sat on quantified input")
	}
}

func TestTriggerGroundProblemStillSat(t *testing.T) {
	// Purely ground problems are unaffected by the strategy.
	s := NewSolver()
	s.Strategy = TriggerBased
	s.Assert(fol.And(fol.Pred("p", fol.Const("a")), fol.Not(fol.Pred("p", fol.Const("b")))))
	if res := s.CheckSat(); res.Status != Sat {
		t.Fatalf("ground trigger = %v (%s)", res.Status, res.Reason)
	}
}

func TestTriggerFarFewerInstantiations(t *testing.T) {
	// The pipeline-shaped encoding: trigger instantiation produces orders
	// of magnitude fewer instances than full grounding on the same
	// unsat problem.
	build := func() *fol.Formula {
		// A 30-node edge chain with a two-variable propagation rule:
		// full grounding instantiates 30^2 pairs, trigger-based only the
		// 29 actual edges.
		var parts []*fol.Formula
		parts = append(parts, fol.Pred("p", fol.Const("c0")))
		for i := 0; i+1 < 30; i++ {
			parts = append(parts, fol.Pred("edge",
				fol.Const(fmtSprintf("c%d", i)), fol.Const(fmtSprintf("c%d", i+1))))
		}
		parts = append(parts,
			fol.Forall("x", fol.Forall("y", fol.Implies(
				fol.And(fol.Pred("p", fol.Var("x")), fol.Pred("edge", fol.Var("x"), fol.Var("y"))),
				fol.Pred("p", fol.Var("y"))))),
			fol.Not(fol.Pred("p", fol.Const("c29"))),
		)
		return fol.And(parts...)
	}
	full := NewSolver()
	full.Strategy = FullGrounding
	full.Assert(build())
	fullRes := full.CheckSat()

	trig := NewSolver()
	trig.Strategy = TriggerBased
	trig.Assert(build())
	trigRes := trig.CheckSat()

	if fullRes.Status != Unsat || trigRes.Status != Unsat {
		t.Fatalf("statuses: full=%v trigger=%v", fullRes.Status, trigRes.Status)
	}
	if trigRes.Stats.Instantiations >= fullRes.Stats.Instantiations {
		t.Errorf("trigger (%d) should instantiate less than full (%d)",
			trigRes.Stats.Instantiations, fullRes.Stats.Instantiations)
	}
}

func TestWallClockTimeout(t *testing.T) {
	// A 1ns wall-clock timeout aborts before any work completes.
	var parts []*fol.Formula
	for i := 0; i < 10; i++ {
		parts = append(parts, fol.Forall("x", fol.Pred(fmtSprintf("p%d", i), fol.Var("x"))))
	}
	for i := 0; i < 10; i++ {
		parts = append(parts, fol.Pred("p0", fol.Const(fmtSprintf("c%d", i))))
	}
	s := NewSolver()
	s.Limits = Limits{Timeout: 1} // 1ns
	s.Assert(fol.And(parts...))
	res := s.CheckSat()
	if res.Status != Unknown {
		t.Fatalf("status = %v, want Unknown under 1ns timeout", res.Status)
	}
}

func TestNestedPushPop(t *testing.T) {
	s := NewSolver()
	p, q, r := fol.Pred("p"), fol.Pred("q"), fol.Pred("r")
	s.Assert(p)
	s.Push()
	s.Assert(q)
	s.Push()
	s.Assert(fol.Not(p))
	if res := s.CheckSat(); res.Status != Unsat {
		t.Fatalf("depth 2: %v", res.Status)
	}
	s.Pop()
	if res := s.CheckSat(); res.Status != Sat {
		t.Fatalf("depth 1 after pop: %v", res.Status)
	}
	s.Assert(r)
	if got := len(s.Assertions()); got != 3 {
		t.Fatalf("assertions = %d", got)
	}
	s.Pop()
	if got := len(s.Assertions()); got != 1 {
		t.Fatalf("after final pop assertions = %d", got)
	}
}

func TestRunScriptNestedScopes(t *testing.T) {
	src := `
(declare-fun a () Bool)
(declare-fun b () Bool)
(assert a)
(push 1)
(assert (not a))
(check-sat)
(push 1)
(assert b)
(check-sat)
(pop 1)
(pop 1)
(assert b)
(check-sat)`
	results, err := RunScript(src, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{Unsat, Unsat, Sat}
	if len(results) != len(want) {
		t.Fatalf("results = %d", len(results))
	}
	for i, w := range want {
		if results[i].Status != w {
			t.Errorf("check %d = %v, want %v", i, results[i].Status, w)
		}
	}
}

// TestRunScriptPoppedQuantifierStopsConstraining nests scopes whose
// quantified clauses contradict the base: once popped, a clause must
// neither refute later checks nor be instantiated over constants that
// arrive after the pop.
func TestRunScriptPoppedQuantifierStopsConstraining(t *testing.T) {
	src := `
(declare-sort U 0)
(declare-const a U)
(declare-const b U)
(declare-fun p (U) Bool)
(declare-fun q (U) Bool)
(assert (p a))
(push 1)
(assert (forall ((x U)) (not (p x))))
(check-sat)
(push 1)
(assert (forall ((x U)) (q x)))
(check-sat)
(pop 1)
(assert (not (q a)))
(check-sat)
(pop 1)
(check-sat)
(assert (p b))
(assert (not (q b)))
(check-sat)
(push 1)
(assert (forall ((x U)) (=> (p x) (q x))))
(check-sat)
(pop 1)
(check-sat)`
	results, err := RunScript(src, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{Unsat, Unsat, Unsat, Sat, Sat, Unsat, Sat}
	if len(results) != len(want) {
		t.Fatalf("results = %d, want %d", len(results), len(want))
	}
	for i, w := range want {
		if results[i].Status != w {
			t.Errorf("check %d = %v (%s), want %v", i, results[i].Status, results[i].Reason, w)
		}
	}
	// b arrives after both quantified scopes were popped: nothing is left
	// to instantiate over it.
	if n := results[4].Stats.Instantiations; n != 0 {
		t.Errorf("popped clauses instantiated over a later constant: %d instances", n)
	}
}

// TestRunScriptRejectsScopeOverflow: a push or pop numeral is bounded by
// the scopes the script may open, so a short script cannot make the
// solver allocate or walk an unbounded scope stack.
func TestRunScriptRejectsScopeOverflow(t *testing.T) {
	for _, src := range []string{
		"(push 9223372036854775807)",
		"(pop 9223372036854775807)",
		"(declare-fun p () Bool)(push 1)(assert p)(pop 2)(check-sat)",
	} {
		if results, err := RunScript(src, Limits{}); err == nil {
			t.Errorf("RunScript(%q) = %v, want a decode error", src, results)
		}
	}
}

// TestCheckSatAssumingLiterals is the table test for check-sat-assuming:
// its literals hold for that check only, and a literal that is not a
// declared Bool symbol or its negation is rejected.
func TestCheckSatAssumingLiterals(t *testing.T) {
	const decl = "(declare-fun p () Bool)(declare-fun q () Bool)(declare-sort U 0)(declare-fun r (U) Bool)(declare-const a U)\n"
	cases := []struct {
		name, script string
		want         []Status
		wantErr      bool
	}{
		{"assumption refuted", "(assert (not p))(check-sat-assuming (p))", []Status{Unsat}, false},
		{"negated assumption", "(assert p)(check-sat-assuming ((not p)))", []Status{Unsat}, false},
		{"consistent assumption", "(assert (not p))(check-sat-assuming ((not p) q))", []Status{Sat}, false},
		{"empty list", "(assert p)(check-sat-assuming ())", []Status{Sat}, false},
		{"for one check only", "(assert (not p))(check-sat-assuming (p))(check-sat)", []Status{Unsat, Sat}, false},
		{"pair refuted", "(assert (or (not p) (not q)))(check-sat-assuming (p q))(check-sat-assuming (p))", []Status{Unsat, Sat}, false},
		{"through quantifiers", "(assert (forall ((x U)) (=> p (r x))))(assert (not (r a)))(check-sat-assuming (p))(check-sat)", []Status{Unsat, Sat}, false},
		{"inside a scope", "(push 1)(assert (not q))(check-sat-assuming (q))(pop 1)(check-sat-assuming (q))", []Status{Unsat, Sat}, false},
		{"not a list", "(check-sat-assuming p)", nil, true},
		{"compound literal", "(check-sat-assuming ((and p q)))", nil, true},
		{"undeclared symbol", "(check-sat-assuming (s))", nil, true},
		{"non-nullary predicate", "(check-sat-assuming (r))", nil, true},
		{"double negation", "(check-sat-assuming ((not (not p))))", nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			results, err := RunScript(decl+c.script, Limits{})
			if c.wantErr {
				if err == nil {
					t.Fatalf("want a decode error, got %v", results)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(c.want) {
				t.Fatalf("results = %d, want %d", len(results), len(c.want))
			}
			for i, w := range c.want {
				if results[i].Status != w {
					t.Errorf("check %d = %v (%s), want %v", i, results[i].Status, results[i].Reason, w)
				}
			}
		})
	}
}

// TestSolverGroundsOnce pins the persistent core: the checks after the
// first add no instances when they bring no new terms, and a popped
// scope's selector does not leak into later answers.
func TestSolverGroundsOnce(t *testing.T) {
	s := NewSolver()
	s.Assert(bigQuantifiedProblem(6))
	first := s.CheckSat()
	if first.Stats.Instantiations == 0 {
		t.Fatal("problem too small to exercise instantiation")
	}
	s.Push()
	s.Assert(fol.Pred("p0", fol.Const("c0")))
	second := s.CheckSatAssuming(fol.UninterpretedPred("vague"))
	s.Pop()
	third := s.CheckSat()
	for i, r := range []Result{second, third} {
		if r.Stats.Instantiations != 0 {
			t.Errorf("check %d re-grounded: %d instantiations", i+2, r.Stats.Instantiations)
		}
	}
	if third.Status != first.Status {
		t.Errorf("after pop: %v, want the first check's %v", third.Status, first.Status)
	}
	if got := second.Placeholders; len(got) != 1 || got[0] != "vague" {
		t.Errorf("assumed placeholder not reported: %v", got)
	}
	if len(third.Placeholders) != 0 {
		t.Errorf("placeholder outlived its check: %v", third.Placeholders)
	}
}

// TestModelOmitsStaleAtoms: a model lists the nullary atoms of the
// problem it decided, not those of popped scopes or of earlier checks'
// assumptions that the solver's one ground core still has variables for.
func TestModelOmitsStaleAtoms(t *testing.T) {
	s := NewSolver()
	s.Assert(fol.Pred("p"))
	s.Push()
	s.Assert(fol.Pred("q"))
	if res := s.CheckSatAssuming(fol.UninterpretedPred("r")); len(res.Model) != 3 {
		t.Fatalf("scoped model = %v, want p, q and r", res.Model)
	}
	s.Pop()
	res := s.CheckSat()
	if res.Status != Sat || len(res.Model) != 1 || !res.Model["p"] {
		t.Errorf("after pop: %v %v, want sat with model {p: true}", res.Status, res.Model)
	}
}

func TestFormatResultModel(t *testing.T) {
	r := Result{Status: Sat, Model: map[string]bool{"cond_b": true, "cond_a": false}}
	out := FormatResult(r)
	ia := strings.Index(out, "cond_a = false")
	ib := strings.Index(out, "cond_b = true")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("model rendering wrong:\n%s", out)
	}
}
