package smtlib

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

func TestParseRoundTrip(t *testing.T) {
	src := `(assert (forall ((x U)) (=> (user x) (share tiktok x))))`
	es, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 {
		t.Fatalf("got %d exprs", len(es))
	}
	re, err := ParseOne(es[0].String())
	if err != nil {
		t.Fatal(err)
	}
	if re.String() != es[0].String() {
		t.Errorf("round trip mismatch: %q vs %q", re.String(), es[0].String())
	}
}

func TestParseComments(t *testing.T) {
	src := "; header comment\n(check-sat) ; trailing\n"
	es, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].Head() != "check-sat" {
		t.Errorf("parse = %v", es)
	}
}

func TestParseQuotedSymbol(t *testing.T) {
	es, err := Parse(`(declare-const |email address| U)`)
	if err != nil {
		t.Fatal(err)
	}
	if es[0].List[1].Atom != "email address" {
		t.Errorf("quoted symbol = %q", es[0].List[1].Atom)
	}
	// Printing re-quotes.
	if !strings.Contains(es[0].String(), "|email address|") {
		t.Errorf("print = %s", es[0])
	}
}

func TestParseString(t *testing.T) {
	es, err := Parse(`(set-info :source "a ""quoted"" policy")`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(es[0].List[2].Atom, `quoted`) {
		t.Errorf("string atom = %q", es[0].List[2].Atom)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"(", ")", "(a (b)", "|unterminated", `"open`} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestFormulaToSExpr(t *testing.T) {
	f := fol.Forall("x", fol.Implies(
		fol.Pred("user", fol.Var("x")),
		fol.Or(
			fol.Pred("share", fol.Const("tiktok"), fol.Var("x")),
			fol.UninterpretedPred("required_by_law"),
		),
	))
	got := FormulaToSExpr(f).String()
	want := "(forall ((x U)) (=> (user x) (or (share tiktok x) required_by_law)))"
	if got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
}

func TestCompileDeclarations(t *testing.T) {
	f := fol.Exists("x", fol.And(
		fol.Pred("share", fol.Const("tiktok"), fol.App("dataOf", fol.Var("x"))),
		fol.UninterpretedPred("legitimate_business_purpose"),
	))
	s, err := CompileQuery(fol.True(), fol.Not(f), [][]*fol.Formula{nil}, CompileOptions{Comment: "test query"})
	if err != nil {
		t.Fatal(err)
	}
	text := s.String()
	for _, want := range []string{
		"(set-logic UF)",
		"(declare-sort U 0)",
		"(declare-const tiktok U)",
		"(declare-fun dataOf (U) U)",
		"(declare-fun share (U U) Bool)",
		"(declare-fun legitimate_business_purpose () Bool)",
		"(set-info :uninterpreted-placeholder legitimate_business_purpose)",
		"(assert (not (exists ((x U))",
		"(check-sat)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("script missing %q:\n%s", want, text)
		}
	}
}

func TestCompileRejectsFreeVars(t *testing.T) {
	if _, err := CompileQuery(fol.Pred("p", fol.Var("x")), fol.True(), nil, CompileOptions{}); err == nil {
		t.Error("expected free-variable error")
	}
}

func TestDecodeScriptRoundTrip(t *testing.T) {
	f := fol.Forall("x", fol.Implies(
		fol.Pred("user", fol.Var("x")),
		fol.Or(
			fol.Pred("share", fol.Const("tiktok"), fol.Var("x")),
			fol.UninterpretedPred("required_by_law"),
		),
	))
	s, err := CompileQuery(f, fol.Not(fol.Pred("user", fol.Const("alice"))), [][]*fol.Formula{nil}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeScript(s.String())
	if err != nil {
		t.Fatalf("decode: %v\nscript:\n%s", err, s)
	}
	if p.Logic != "UF" {
		t.Errorf("logic=%q", p.Logic)
	}
	if len(p.Commands) == 0 || p.Commands[0].Kind != CmdAssert {
		t.Fatalf("commands = %+v, want the policy asserted first", p.Commands)
	}
	if !p.Commands[0].Formula.Equal(f) {
		t.Errorf("decoded formula %s != original %s", p.Commands[0].Formula, f)
	}
	// Placeholder tag survives the round trip.
	ua := p.Commands[0].Formula.UninterpretedAtoms()
	if len(ua) != 1 || ua[0] != "required_by_law" {
		t.Errorf("placeholders lost: %v (decl list %v)", ua, p.Placeholders)
	}
}

// TestCompileQueryRoundTrip decodes the three-check script of one
// question back into its solver commands, with every assumed placeholder
// declared even when the policy no longer mentions it.
func TestCompileQueryRoundTrip(t *testing.T) {
	policy := fol.Implies(fol.UninterpretedPred("cond_a"), fol.Pred("share", fol.Const("acme")))
	negGoal := fol.Not(fol.Pred("share", fol.Const("acme")))
	goals := [][]*fol.Formula{nil, {fol.UninterpretedPred("cond_a"), fol.UninterpretedPred("cond_gone")}}
	s, err := CompileQuery(policy, negGoal, goals, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeScript(s.String())
	if err != nil {
		t.Fatalf("decode: %v\nscript:\n%s", err, s)
	}
	want := []CommandKind{CmdAssert, CmdPush, CmdAssert, CmdCheckSat, CmdCheckSat, CmdPop, CmdCheckSat}
	if len(p.Commands) != len(want) {
		t.Fatalf("commands = %+v", p.Commands)
	}
	for i, k := range want {
		if p.Commands[i].Kind != k {
			t.Errorf("command %d kind = %d, want %d", i, p.Commands[i].Kind, k)
		}
	}
	if !p.Commands[0].Formula.Equal(policy) || !p.Commands[2].Formula.Equal(negGoal) {
		t.Errorf("asserts = %s, %s", p.Commands[0].Formula, p.Commands[2].Formula)
	}
	if p.Commands[1].Levels != 1 || p.Commands[5].Levels != 1 {
		t.Errorf("push/pop levels = %d, %d", p.Commands[1].Levels, p.Commands[5].Levels)
	}
	assume := p.Commands[4].Assume
	if len(assume) != 2 || assume[0].Pred != "cond_a" || assume[1].Pred != "cond_gone" || !assume[1].Uninterpreted {
		t.Errorf("assumed literals = %v", assume)
	}
	if len(p.Commands[3].Assume)+len(p.Commands[6].Assume) != 0 {
		t.Error("plain check-sat carries assumptions")
	}
	// Without placeholders there is no conditional check.
	s, err = CompileQuery(policy, negGoal, [][]*fol.Formula{nil}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s.String(), "check-sat-assuming") {
		t.Errorf("unconditional question got a conditional check:\n%s", s)
	}
}

// TestCompileQueryScenarioChecks: one goal check per assumption set, a
// negated literal assumes its placeholder false, and the policy-alone
// check still comes last.
func TestCompileQueryScenarioChecks(t *testing.T) {
	policy := fol.Implies(fol.UninterpretedPred("cond_a"), fol.Pred("share", fol.Const("acme")))
	negGoal := fol.Not(fol.Pred("share", fol.Const("acme")))
	a := fol.UninterpretedPred("cond_a")
	s, err := CompileQuery(policy, negGoal, [][]*fol.Formula{{fol.Not(a)}, {a}}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeScript(s.String())
	if err != nil {
		t.Fatalf("decode: %v\nscript:\n%s", err, s)
	}
	want := []CommandKind{CmdAssert, CmdPush, CmdAssert, CmdCheckSat, CmdCheckSat, CmdPop, CmdCheckSat}
	if len(p.Commands) != len(want) {
		t.Fatalf("commands = %+v", p.Commands)
	}
	if got := p.Commands[3].Assume; len(got) != 1 || !got[0].Equal(fol.Not(a)) {
		t.Errorf("first scenario assumes %v, want [¬cond_a]", got)
	}
	if got := p.Commands[4].Assume; len(got) != 1 || !got[0].Equal(a) {
		t.Errorf("second scenario assumes %v, want [cond_a]", got)
	}
	if len(p.Commands[6].Assume) != 0 {
		t.Error("policy-alone check carries assumptions")
	}
	if _, err := CompileQuery(policy, negGoal, [][]*fol.Formula{{fol.UninterpretedPred("share")}}, CompileOptions{}); err == nil {
		t.Error("assuming a placeholder named like a unary predicate compiled")
	}
}

func TestDecodeScopeLevels(t *testing.T) {
	p, err := DecodeScript("(push)(push 2)(pop 0)(pop 3)")
	if err != nil {
		t.Fatal(err)
	}
	want := []Command{{Kind: CmdPush, Levels: 1}, {Kind: CmdPush, Levels: 2}, {Kind: CmdPop, Levels: 0}, {Kind: CmdPop, Levels: 3}}
	for i, c := range want {
		if p.Commands[i].Kind != c.Kind || p.Commands[i].Levels != c.Levels {
			t.Errorf("command %d = %+v, want %+v", i, p.Commands[i], c)
		}
	}
	if _, err := DecodeScript(fmt.Sprintf("(push %d)(pop %d)(push %d)", MaxScopeDepth, MaxScopeDepth, MaxScopeDepth)); err != nil {
		t.Errorf("scopes up to MaxScopeDepth: %v", err)
	}
	for _, src := range []string{
		"(push x)", "(pop -1)", "(push 1 2)", "(pop (1))",
		// Popping more scopes than are open.
		"(pop)", "(push 1)(pop 2)", "(push 2)(pop 1)(pop 2)", "(pop 9223372036854775807)",
		// Opening more than MaxScopeDepth.
		fmt.Sprintf("(push %d)(push)", MaxScopeDepth), "(push 9223372036854775807)", "(push 99999999999999999999)",
	} {
		if _, err := DecodeScript(src); err == nil {
			t.Errorf("DecodeScript(%q) should fail", src)
		}
	}
}

func TestDecodeMultiBinder(t *testing.T) {
	src := `
(declare-sort U 0)
(declare-fun p (U U) Bool)
(assert (forall ((x U) (y U)) (p x y)))
(check-sat)`
	p, err := DecodeScript(src)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Commands[0].Formula
	if f.Op != fol.OpForall || f.Sub[0].Op != fol.OpForall {
		t.Errorf("multi-binder not nested: %s", f)
	}
}

func TestDecodeBooleanEquality(t *testing.T) {
	src := `
(declare-fun a () Bool)
(declare-fun b () Bool)
(assert (= a b))
(check-sat)`
	p, err := DecodeScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Commands[0].Formula; f.Op != fol.OpIff {
		t.Errorf("boolean = should decode to Iff: %s", f)
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, src := range []string{
		`(assert undeclared)`,
		`(declare-sort U 0)(declare-fun p (U) Bool)(assert (p a))`, // undeclared constant a
		`(declare-fun p () Bool)(assert (p x))`,                    // arity mismatch
	} {
		if _, err := DecodeScript(src); err == nil {
			t.Errorf("DecodeScript(%q) should fail", src)
		}
	}
}

// twoSortScript is satisfiable (A has one element, B two), but solved over
// one domain it reads unsat; the decoder must refuse it.
const twoSortScript = `(declare-sort A 0) (declare-sort B 0)
(declare-const a A) (declare-const b1 B) (declare-const b2 B)
(assert (forall ((x A) (y A)) (= x y)))
(assert (not (= b1 b2)))
(check-sat)`

// TestDecodeRefusesSorts checks that a script may use one declared sort
// plus Bool, and that each refusal names its construct.
func TestDecodeRefusesSorts(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{twoSortScript, "declare-sort B"},
		{`(declare-const a U)`, "declare-const a: sort U is not declared"},
		{`(declare-const n Int)`, "declare-const n: sort Int is not declared"},
		{`(declare-sort U 0)(declare-fun f (U) Real)`, "declare-fun f: sort Real is not declared"},
		{`(declare-sort U 0)(declare-fun p ((_ BitVec 8)) Bool)`, "declare-fun p: sort (_ BitVec 8) is not declared"},
		{`(declare-sort U 0)(declare-fun p (Bool) Bool)`, "declare-fun p: sort Bool is supported only as a result sort"},
		{`(declare-sort U 0)(declare-fun p (U) Bool)(assert (forall ((x U) (y V)) (p x)))`, "forall binder y: sort V is not declared"},
		{`(declare-sort U 0)(assert (exists ((x Bool)) true))`, "exists binder x: sort Bool"},
	} {
		_, err := DecodeScript(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("DecodeScript(%q) = %v, want an error naming %q", c.src, err, c.want)
		}
	}

	p, err := DecodeScript(`(declare-sort U 0)(declare-const a U)(declare-const p Bool)
(declare-fun f (U) U)(declare-fun r (U U) Bool)
(assert (and p (forall ((x U)) (r x (f a)))))(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Preds["p"] != 0 || p.Preds["r"] != 2 || p.Funcs["f"] != 1 || len(p.Consts) != 1 {
		t.Errorf("declarations decoded to preds %v, funcs %v, consts %v", p.Preds, p.Funcs, p.Consts)
	}
}

func TestQuoteSymbol(t *testing.T) {
	if got := quoteSymbol("simple_symbol"); got != "simple_symbol" {
		t.Errorf("simple symbol quoted: %q", got)
	}
	if got := quoteSymbol("has space"); got != "|has space|" {
		t.Errorf("complex symbol not quoted: %q", got)
	}
}

func TestScriptIncrementalCommands(t *testing.T) {
	s := NewScript("UF")
	s.Push()
	s.CheckSatAssuming(A("a"), L(A("not"), A("b")))
	s.Pop()
	text := s.String()
	for _, want := range []string{"(push 1)", "(check-sat-assuming (a (not b)))", "(pop 1)"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

// Property: printing then parsing an arbitrary tree of safe atoms is the
// identity.
func TestSExprRoundTripProperty(t *testing.T) {
	f := func(depth uint8, widths []uint8) bool {
		e := buildTree(int(depth%4), widths, 0)
		re, err := ParseOne(e.String())
		if err != nil {
			return false
		}
		return re.String() == e.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildTree(depth int, widths []uint8, idx int) *SExpr {
	if depth == 0 || len(widths) == 0 {
		return A("a" + string(rune('a'+idx%26)))
	}
	w := int(widths[idx%len(widths)])%3 + 1
	items := make([]*SExpr, w)
	for i := range items {
		items[i] = buildTree(depth-1, widths, idx+i+1)
	}
	return L(items...)
}

func TestDecodeDistinct(t *testing.T) {
	src := `
(declare-sort U 0)
(declare-const a U)
(declare-const b U)
(declare-const c U)
(assert (distinct a b c))
(check-sat)`
	p, err := DecodeScript(src)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Commands[0].Formula
	if f.Op != fol.OpAnd || len(f.Sub) != 3 {
		t.Fatalf("distinct decoded to %s", f)
	}
	for _, s := range f.Sub {
		if s.Op != fol.OpNot || s.Sub[0].Op != fol.OpEq {
			t.Errorf("distinct clause = %s", s)
		}
	}
	_, err = DecodeScript(`(declare-sort U 0)(declare-const a U)(assert (distinct a))`)
	if err == nil || !strings.Contains(err.Error(), "distinct") {
		t.Errorf("unary distinct should fail on distinct, got %v", err)
	}
}
