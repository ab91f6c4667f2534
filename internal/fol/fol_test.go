package fol

import (
	"math/rand"
	"strings"
	"testing"
)

func TestTermString(t *testing.T) {
	tm := App("f", Var("x"), Const("a"))
	if tm.String() != "f(x,a)" {
		t.Errorf("String = %q", tm.String())
	}
}

func TestFormulaString(t *testing.T) {
	f := Forall("x", Implies(Pred("user", Var("x")), Exists("y", Pred("share", Var("x"), Var("y")))))
	want := "∀x. (user(x) → ∃y. share(x,y))"
	if f.String() != want {
		t.Errorf("String = %q, want %q", f.String(), want)
	}
}

func TestAndOrConstructors(t *testing.T) {
	if And().Op != OpTrue {
		t.Error("And() should be ⊤")
	}
	if Or().Op != OpFalse {
		t.Error("Or() should be ⊥")
	}
	p := Pred("p")
	if And(p) != p || Or(p) != p {
		t.Error("singleton And/Or should return operand")
	}
}

func TestFreeVars(t *testing.T) {
	f := Forall("x", Pred("p", Var("x"), Var("y")))
	got := FreeVars(f)
	if len(got) != 1 || got[0] != "y" {
		t.Errorf("FreeVars = %v", got)
	}
	sentence := Forall("x", Exists("y", Pred("p", Var("x"), Var("y"))))
	if len(FreeVars(sentence)) != 0 {
		t.Errorf("sentence has free vars: %v", FreeVars(sentence))
	}
}

func TestSubst(t *testing.T) {
	f := Pred("p", Var("x"), Var("y"))
	g := Subst(f, "x", Const("a"))
	if g.String() != "p(a,y)" {
		t.Errorf("Subst = %s", g)
	}
	// Shadowing: bound x untouched.
	h := Forall("x", Pred("p", Var("x")))
	if !Subst(h, "x", Const("a")).Equal(h) {
		t.Error("bound variable was substituted")
	}
}

func TestSubstCaptureAvoidance(t *testing.T) {
	// Substituting y := x into ∀x. p(x,y) must rename the binder.
	f := Forall("x", Pred("p", Var("x"), Var("y")))
	g := Subst(f, "y", Var("x"))
	if g.Bound == "x" {
		t.Fatalf("capture: %s", g)
	}
	fv := FreeVars(g)
	if len(fv) != 1 || fv[0] != "x" {
		t.Errorf("free vars after subst = %v, want [x]", fv)
	}
}

func TestNNF(t *testing.T) {
	f := Not(And(Pred("p"), Not(Pred("q"))))
	g := NNF(f)
	if g.String() != "(¬p ∨ q)" {
		t.Errorf("NNF = %s", g)
	}
	// Quantifier duality.
	h := NNF(Not(Forall("x", Pred("p", Var("x")))))
	if h.Op != OpExists || h.Sub[0].Op != OpNot {
		t.Errorf("¬∀ should become ∃¬: %s", h)
	}
}

func TestNNFNoImplications(t *testing.T) {
	f := Iff(Implies(Pred("p"), Pred("q")), Pred("r"))
	g := NNF(f)
	var check func(x *Formula)
	check = func(x *Formula) {
		if x.Op == OpImplies || x.Op == OpIff {
			t.Fatalf("NNF retains %s in %s", x.Op, g)
		}
		if x.Op == OpNot && x.Sub[0].Op != OpPred && x.Sub[0].Op != OpEq {
			t.Fatalf("NNF has non-atomic negation: %s", x)
		}
		for _, s := range x.Sub {
			check(s)
		}
	}
	check(g)
}

func TestPrenex(t *testing.T) {
	f := And(Forall("x", Pred("p", Var("x"))), Exists("x", Pred("q", Var("x"))))
	g := Prenex(NNF(f))
	// Both quantifiers must be at the front, renamed apart.
	if g.Op != OpForall && g.Op != OpExists {
		t.Fatalf("not prenex: %s", g)
	}
	inner := g.Sub[0]
	if inner.Op != OpForall && inner.Op != OpExists {
		t.Fatalf("second quantifier not pulled: %s", g)
	}
	if g.Bound == inner.Bound {
		t.Errorf("binders not renamed apart: %s", g)
	}
	if matrix := inner.Sub[0]; matrix.Op != OpAnd {
		t.Errorf("matrix = %s", matrix)
	}
}

func TestSkolemize(t *testing.T) {
	// ∀x ∃y p(x,y) -> ∀x p(x, sk_1(x))
	f := Forall("x", Exists("y", Pred("p", Var("x"), Var("y"))))
	g := SkolemizeTagged(f, "")
	if g.Op != OpForall {
		t.Fatalf("Skolemize = %s", g)
	}
	atom := g.Sub[0]
	if atom.Terms[1].Kind != TermApp || len(atom.Terms[1].Args) != 1 {
		t.Errorf("expected Skolem function of x, got %s", atom)
	}
	// Outer existential becomes a constant.
	h := SkolemizeTagged(Exists("y", Pred("q", Var("y"))), "")
	if h.Terms[0].Kind != TermConst {
		t.Errorf("expected Skolem constant, got %s", h)
	}
}

func TestCNF(t *testing.T) {
	// (p ∧ q) ∨ r  =>  (p∨r) ∧ (q∨r)
	f := Or(And(Pred("p"), Pred("q")), Pred("r"))
	cs, err := CNF(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || len(cs[0]) != 2 || len(cs[1]) != 2 {
		t.Fatalf("CNF = %v", cs)
	}
}

func TestCNFFalseTrue(t *testing.T) {
	cs, err := CNF(False())
	if err != nil || len(cs) != 1 || len(cs[0]) != 0 {
		t.Errorf("CNF(⊥) = %v, %v", cs, err)
	}
	cs, err = CNF(True())
	if err != nil || len(cs) != 0 {
		t.Errorf("CNF(⊤) = %v, %v", cs, err)
	}
}

func TestClausesOfEndToEnd(t *testing.T) {
	// ∀x (p(x) -> ∃y q(x,y)) yields a single two-literal clause.
	f := Forall("x", Implies(Pred("p", Var("x")), Exists("y", Pred("q", Var("x"), Var("y")))))
	cs, err := ClausesOfTagged(f, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || len(cs[0]) != 2 {
		t.Fatalf("clauses = %v", cs)
	}
	if !cs[0][0].Neg {
		t.Errorf("first literal should be ¬p(x): %v", cs[0])
	}
	if !strings.Contains(cs[0][1].String(), "sk_") {
		t.Errorf("second literal should mention Skolem function: %v", cs[0][1])
	}
}

func TestSimplify(t *testing.T) {
	p, q := Pred("p"), Pred("q")
	cases := []struct {
		in   *Formula
		want string
	}{
		{And(p, True(), p), "p"},
		{And(p, False()), "⊥"},
		{Or(p, True()), "⊤"},
		{Or(p, Not(p)), "⊤"},
		{And(p, Not(p)), "⊥"},
		{Not(Not(p)), "p"},
		{Implies(False(), p), "⊤"},
		{Implies(True(), p), "p"},
		{Implies(p, False()), "¬p"},
		{Iff(p, p), "⊤"},
		{And(And(p, q), q), "(p ∧ q)"},
		{Forall("x", True()), "⊤"},
		{Exists("x", p), "p"}, // x not mentioned
	}
	for _, c := range cases {
		if got := Simplify(c.in).String(); got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyKeepsQuantifier(t *testing.T) {
	f := Forall("x", Pred("p", Var("x")))
	if got := Simplify(f); !got.Equal(f) {
		t.Errorf("Simplify dropped needed quantifier: %s", got)
	}
}

func TestSignatureOf(t *testing.T) {
	f := And(
		Pred("share", Const("tiktok"), App("dataOf", Var("x"))),
		UninterpretedPred("required_by_law"),
	)
	sig, err := SignatureOf(Forall("x", f))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Preds["share"] != 2 || sig.Preds["required_by_law"] != 0 {
		t.Errorf("preds = %v", sig.Preds)
	}
	if sig.Funcs["dataOf"] != 1 {
		t.Errorf("funcs = %v", sig.Funcs)
	}
	if !sig.Consts["tiktok"] {
		t.Errorf("consts = %v", sig.Consts)
	}
	if !sig.Uninterpreted["required_by_law"] {
		t.Errorf("uninterpreted = %v", sig.Uninterpreted)
	}
}

func TestSignatureArityConflict(t *testing.T) {
	f := And(Pred("p", Const("a")), Pred("p", Const("a"), Const("b")))
	if _, err := SignatureOf(f); err == nil {
		t.Error("expected arity-conflict error")
	}
}

func TestUninterpretedAtoms(t *testing.T) {
	f := And(Pred("share"), UninterpretedPred("legitimate_business_purpose"), UninterpretedPred("required_by_law"))
	got := f.UninterpretedAtoms()
	if len(got) != 2 || got[0] != "legitimate_business_purpose" {
		t.Errorf("UninterpretedAtoms = %v", got)
	}
}

func TestEvalGround(t *testing.T) {
	in := NewInterp("a", "b")
	in.SetTrue("p", Const("a"))
	v, err := in.Eval(Exists("x", Pred("p", Var("x"))), nil)
	if err != nil || !v {
		t.Errorf("∃x p(x) = %v, %v", v, err)
	}
	v, err = in.Eval(Forall("x", Pred("p", Var("x"))), nil)
	if err != nil || v {
		t.Errorf("∀x p(x) = %v, %v", v, err)
	}
	v, err = in.Eval(Eq(Const("a"), Const("a")), nil)
	if err != nil || !v {
		t.Errorf("a=a eval failed: %v %v", v, err)
	}
}

func TestEvalUnboundVar(t *testing.T) {
	in := NewInterp("a")
	if _, err := in.Eval(Pred("p", Var("x")), nil); err == nil {
		t.Error("expected unbound-variable error")
	}
}

// randomFormula builds a random quantifier-free sentence over preds p,q,r
// with constants a,b.
func randomFormula(r *rand.Rand, depth int) *Formula {
	if depth <= 0 {
		consts := []Term{Const("a"), Const("b")}
		switch r.Intn(4) {
		case 0:
			return Pred("p", consts[r.Intn(2)])
		case 1:
			return Pred("q", consts[r.Intn(2)])
		case 2:
			return Eq(consts[r.Intn(2)], consts[r.Intn(2)])
		default:
			return Pred("r")
		}
	}
	switch r.Intn(5) {
	case 0:
		return Not(randomFormula(r, depth-1))
	case 1:
		return And(randomFormula(r, depth-1), randomFormula(r, depth-1))
	case 2:
		return Or(randomFormula(r, depth-1), randomFormula(r, depth-1))
	case 3:
		return Implies(randomFormula(r, depth-1), randomFormula(r, depth-1))
	default:
		return Iff(randomFormula(r, depth-1), randomFormula(r, depth-1))
	}
}

func randomInterp(r *rand.Rand) *Interp {
	in := NewInterp("a", "b")
	for _, c := range []string{"a", "b"} {
		if r.Intn(2) == 0 {
			in.SetTrue("p", Const(c))
		}
		if r.Intn(2) == 0 {
			in.SetTrue("q", Const(c))
		}
	}
	if r.Intn(2) == 0 {
		in.SetTrue("r")
	}
	return in
}

// Property: NNF and Simplify preserve truth under random interpretations.
func TestTransformsPreserveSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		f := randomFormula(r, 4)
		in := randomInterp(r)
		want, err := in.Eval(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]*Formula{"NNF": NNF(f), "Simplify": Simplify(f)} {
			got, err := in.Eval(g, nil)
			if err != nil {
				t.Fatalf("%s eval: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s changed semantics of %s: %v -> %v (result %s)", name, f, want, got, g)
			}
		}
	}
}

// Property: CNF of an NNF'd ground formula is equisatisfiable pointwise —
// here, since no Skolemization happens on ground input, it is equivalent.
func TestCNFPreservesSemanticsGround(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		f := randomFormula(r, 3)
		in := randomInterp(r)
		want, err := in.Eval(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := CNF(NNF(f))
		if err != nil {
			t.Fatal(err)
		}
		got := true
		for _, c := range cs {
			cv := false
			for _, lit := range c {
				v, err := in.Eval(lit.Atom, nil)
				if err != nil {
					t.Fatal(err)
				}
				if v != lit.Neg {
					cv = true
					break
				}
			}
			if !cv {
				got = false
				break
			}
		}
		if got != want {
			t.Fatalf("CNF changed semantics of %s: want %v got %v (clauses %v)", f, want, got, cs)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	f := And(Pred("p", Var("x")), Pred("q"))
	g := f.Clone()
	g.Sub[0].Pred = "z"
	if f.Sub[0].Pred != "p" {
		t.Error("Clone shares nodes")
	}
	if f.Size() != 3 {
		t.Errorf("Size = %d", f.Size())
	}
}
