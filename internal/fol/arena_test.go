package fol

import (
	"math/rand"
	"testing"
)

func TestArenaInterningIsCanonical(t *testing.T) {
	a := NewArena()
	x := a.InternVar(a.Sym("x"))
	c := a.InternConst(a.Sym("c"))
	if x2 := a.InternVar(a.Sym("x")); x2 != x {
		t.Fatalf("re-interning var: %d != %d", x2, x)
	}
	if c2 := a.InternConst(a.Sym("c")); c2 != c {
		t.Fatalf("re-interning const: %d != %d", c2, c)
	}
	// Same spelling, different kind: distinct IDs.
	if cv := a.InternVar(a.Sym("c")); cv == c {
		t.Fatal("var c and const c must not alias")
	}
	f := a.Sym("f")
	app1 := a.InternApp(f, []TermID{c, x})
	app2 := a.InternApp(f, []TermID{c, x})
	if app1 != app2 {
		t.Fatalf("re-interning app: %d != %d", app1, app2)
	}
	if app3 := a.InternApp(f, []TermID{x, c}); app3 == app1 {
		t.Fatal("argument order must matter")
	}
	if a.TermGround(app1) {
		t.Error("f(c, x) is not ground")
	}
	if !a.TermGround(a.InternApp(f, []TermID{c, c})) {
		t.Error("f(c, c) is ground")
	}
}

func TestArenaTermRoundTrip(t *testing.T) {
	a := NewArena()
	orig := App("f", Const("c"), App("g", Var("x")))
	id := a.InternTerm(orig)
	back := a.Term(id)
	if back.String() != orig.String() {
		t.Fatalf("round trip: %s != %s", back, orig)
	}
	if id2 := a.InternTerm(back); id2 != id {
		t.Fatalf("re-interning reconstructed term: %d != %d", id2, id)
	}
}

func TestArenaAtomInterning(t *testing.T) {
	a := NewArena()
	c := a.InternConst(a.Sym("c"))
	d := a.InternConst(a.Sym("d"))
	p := a.Sym("p")
	at1 := a.InternPred(p, false, []TermID{c, d})
	at2 := a.InternPred(p, false, []TermID{c, d})
	if at1 != at2 {
		t.Fatalf("re-interning atom: %d != %d", at1, at2)
	}
	eq1 := a.InternEq(c, d)
	eq2 := a.InternEq(c, d)
	if eq1 != eq2 {
		t.Fatalf("re-interning equality: %d != %d", eq1, eq2)
	}
	if !a.AtomEq(eq1) || a.AtomEq(at1) {
		t.Error("eq flag wrong")
	}
	f := a.AtomFormula(at1)
	if f.String() != "p(c,d)" {
		t.Fatalf("AtomFormula: %s", f)
	}
	if a.InternAtom(f) != at1 {
		t.Fatal("InternAtom of reconstructed formula must hit the same ID")
	}
}

func TestIClauseCanonAndTautology(t *testing.T) {
	a := NewArena()
	c := a.InternConst(a.Sym("c"))
	p := a.InternPred(a.Sym("p"), false, []TermID{c})
	q := a.InternPred(a.Sym("q"), false, []TermID{c})
	cl1 := IClause{MkILit(q, false), MkILit(p, true), MkILit(q, false)}.Canon()
	cl2 := IClause{MkILit(p, true), MkILit(q, false)}.Canon()
	if len(cl1) != len(cl2) {
		t.Fatalf("canon dedup: %v vs %v", cl1, cl2)
	}
	for i := range cl1 {
		if cl1[i] != cl2[i] {
			t.Fatalf("canon order: %v vs %v", cl1, cl2)
		}
	}
	if !(IClause{MkILit(p, false), MkILit(p, true)}).Canon().Tautology() {
		t.Error("p ∨ ¬p must be a tautology")
	}
	if cl1.Tautology() {
		t.Error("¬p ∨ q is not a tautology")
	}
}

func TestArenaSubstAndMatch(t *testing.T) {
	a := NewArena()
	xs := a.Sym("x")
	x := a.InternVar(xs)
	c := a.InternConst(a.Sym("c"))
	f := a.Sym("f")
	pat := a.InternApp(f, []TermID{x, x})
	ground := a.InternApp(f, []TermID{c, c})
	sub := map[Sym]TermID{}
	if !a.Match(pat, ground, sub) || sub[xs] != c {
		t.Fatalf("match f(x,x) vs f(c,c): ok=%v sub=%v", sub[xs] == c, sub)
	}
	if got := a.Subst(pat, sub); got != ground {
		t.Fatalf("subst: %d != %d", got, ground)
	}
	d := a.InternConst(a.Sym("d"))
	mixed := a.InternApp(f, []TermID{c, d})
	sub2 := map[Sym]TermID{}
	if a.Match(pat, mixed, sub2) {
		t.Fatal("f(x,x) must not match f(c,d)")
	}
	// Substituting a ground term is the identity and must not grow the arena.
	n := a.NumTerms()
	if a.Subst(ground, sub) != ground {
		t.Fatal("ground subst must be identity")
	}
	if a.NumTerms() != n {
		t.Fatalf("ground subst allocated %d new terms", a.NumTerms()-n)
	}
}

// TestArenaMatchAtom: E-matching of a trigger atom against ground atoms
// binds repeated variables consistently, requires constants to agree and
// descends into function arguments.
func TestArenaMatchAtom(t *testing.T) {
	a := NewArena()
	x, y := a.Sym("x"), a.Sym("y")
	match := func(pattern, ground *Formula) (map[Sym]TermID, bool) {
		sub := map[Sym]TermID{}
		return sub, a.MatchAtom(a.InternAtom(pattern), a.InternAtom(ground), sub)
	}
	pattern := Pred("p", Var("x"), Const("k"), Var("x"))
	if sub, ok := match(pattern, Pred("p", Const("a"), Const("k"), Const("a"))); !ok || a.Term(sub[x]).Name != "a" {
		t.Errorf("match failed: %v %v", sub, ok)
	}
	// Conflicting repeated variable.
	if _, ok := match(pattern, Pred("p", Const("a"), Const("k"), Const("b"))); ok {
		t.Error("conflicting binding matched")
	}
	// Constant mismatch.
	if _, ok := match(pattern, Pred("p", Const("a"), Const("z"), Const("a"))); ok {
		t.Error("constant mismatch matched")
	}
	// Function patterns.
	if sub, ok := match(Pred("q", App("f", Var("y"))), Pred("q", App("f", Const("c")))); !ok || a.Term(sub[y]).Name != "c" {
		t.Errorf("function match failed: %v %v", sub, ok)
	}
}

func TestArenaGroundSubterms(t *testing.T) {
	a := NewArena()
	id := a.InternTerm(App("f", Const("c"), App("g", Var("x"), Const("d"))))
	got := a.GroundSubterms(id, nil)
	names := map[string]bool{}
	for _, g := range got {
		names[a.Term(g).String()] = true
	}
	// f(...) and g(...) contain x; only the constants are ground subterms.
	if len(got) != 2 || !names["c"] || !names["d"] {
		t.Fatalf("ground subterms of f(c, g(x, d)): %v", names)
	}
}

// TestArenaAgainstStringIdentity cross-checks the hash-consing invariant on
// random terms: two terms intern to the same ID iff they print identically.
func TestArenaAgainstStringIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var gen func(depth int) Term
	gen = func(depth int) Term {
		if depth <= 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return Var([]string{"x", "y"}[r.Intn(2)])
			default:
				return Const([]string{"a", "b", "c"}[r.Intn(3)])
			}
		}
		fn := []string{"f", "g"}[r.Intn(2)]
		n := 1 + r.Intn(2)
		args := make([]Term, n)
		for i := range args {
			args[i] = gen(depth - 1)
		}
		return App(fn, args...)
	}
	a := NewArena()
	byString := map[string]TermID{}
	for i := 0; i < 2000; i++ {
		tm := gen(3)
		id := a.InternTerm(tm)
		s := tm.String()
		if prev, ok := byString[s]; ok {
			if prev != id {
				t.Fatalf("%s interned twice with different IDs %d, %d", s, prev, id)
			}
		} else {
			byString[s] = id
		}
	}
	if a.NumTerms() > len(byString)+8 {
		// Subterms are interned too, so NumTerms can exceed the count of
		// distinct top-level strings — but every subterm string is also a
		// generated string with positive probability; allow slack.
		t.Logf("terms=%d distinct strings=%d", a.NumTerms(), len(byString))
	}
}
