package smtlib

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// referenceCompileQuery is CompileQuery as it was when every atom and list
// was its own heap object, built with A and L: the reference the compiler
// must match expression for expression.
func referenceCompileQuery(policy, negGoal *fol.Formula, goals [][]*fol.Formula, opts CompileOptions) (*Script, error) {
	all := []*fol.Formula{policy, negGoal}
	for _, lits := range goals {
		all = append(all, lits...)
	}
	f := fol.And(all...)
	if fv := freeVars(f); len(fv) > 0 {
		return nil, fmt.Errorf("smtlib: formula has free variables %v", fv)
	}
	sig, err := signatureOf(f)
	if err != nil {
		return nil, err
	}
	logic := opts.Logic
	if logic == "" {
		logic = "UF"
	}
	s := &Script{}
	s.Add(L(A("set-logic"), A(logic)))
	s.Add(L(A("set-option"), A(":produce-models"), A("true")))
	if opts.Comment != "" {
		s.Add(L(A("set-info"), A(":source"), A("\""+strings.ReplaceAll(opts.Comment, `"`, `'`)+"\"")))
	}
	s.Add(L(A("declare-sort"), A(USort), A("0")))
	declareFun := func(name string, arity int, ret string) {
		args := make([]*SExpr, arity)
		for i := range args {
			args[i] = A(USort)
		}
		s.Add(L(A("declare-fun"), A(name), L(args...), A(ret)))
	}
	for _, c := range sortedKeys(sig.Consts) {
		s.Add(L(A("declare-const"), A(c), A(USort)))
	}
	for _, fn := range sortedKeysInt(sig.Funcs) {
		declareFun(fn, sig.Funcs[fn], USort)
	}
	for _, p := range sortedKeysInt(sig.Preds) {
		if sig.Uninterpreted[p] {
			s.Add(L(A("set-info"), A(":uninterpreted-placeholder"), A(p)))
		}
		declareFun(p, sig.Preds[p], "Bool")
	}
	s.Add(L(A("assert"), referenceFormula(policy)))
	s.Add(L(A("push"), A("1")))
	s.Add(L(A("assert"), referenceFormula(negGoal)))
	for _, lits := range goals {
		if len(lits) == 0 {
			s.Add(L(A("check-sat")))
			continue
		}
		exprs := make([]*SExpr, len(lits))
		for i, lit := range lits {
			exprs[i] = referenceFormula(lit)
		}
		s.Add(L(A("check-sat-assuming"), L(exprs...)))
	}
	s.Add(L(A("pop"), A("1")))
	s.Add(L(A("check-sat")))
	return s, nil
}

// referenceTerm and referenceFormula are the A/L renderings of terms and
// formulas.
func referenceTerm(t fol.Term) *SExpr {
	if t.Kind != fol.TermApp {
		return A(t.Name)
	}
	items := []*SExpr{A(t.Name)}
	for _, a := range t.Args {
		items = append(items, referenceTerm(a))
	}
	return L(items...)
}

func referenceFormula(f *fol.Formula) *SExpr {
	switch f.Op {
	case fol.OpTrue:
		return A("true")
	case fol.OpFalse:
		return A("false")
	case fol.OpPred:
		if len(f.Terms) == 0 {
			return A(f.Pred)
		}
		items := []*SExpr{A(f.Pred)}
		for _, t := range f.Terms {
			items = append(items, referenceTerm(t))
		}
		return L(items...)
	case fol.OpEq:
		return L(A("="), referenceTerm(f.Terms[0]), referenceTerm(f.Terms[1]))
	case fol.OpNot:
		return L(A("not"), referenceFormula(f.Sub[0]))
	case fol.OpAnd, fol.OpOr:
		items := []*SExpr{A(map[fol.Op]string{fol.OpAnd: "and", fol.OpOr: "or"}[f.Op])}
		for _, s := range f.Sub {
			items = append(items, referenceFormula(s))
		}
		return L(items...)
	case fol.OpImplies:
		return L(A("=>"), referenceFormula(f.Sub[0]), referenceFormula(f.Sub[1]))
	case fol.OpIff:
		return L(A("="), referenceFormula(f.Sub[0]), referenceFormula(f.Sub[1]))
	default:
		op := map[fol.Op]string{fol.OpForall: "forall", fol.OpExists: "exists"}[f.Op]
		return L(A(op), L(L(A(f.Bound), A(USort))), referenceFormula(f.Sub[0]))
	}
}

// randomTerm draws a variable in scope, a constant (one needs quoting) or
// an application of f/1 or g/2.
func randomTerm(r *rand.Rand, depth int, scope []string) fol.Term {
	switch n := r.Intn(5); {
	case depth > 0 && n == 0:
		return fol.App("f", randomTerm(r, depth-1, scope))
	case depth > 0 && n == 1:
		return fol.App("g", randomTerm(r, depth-1, scope), randomTerm(r, depth-1, scope))
	case len(scope) > 0 && n == 2:
		return fol.Var(scope[r.Intn(len(scope))])
	}
	return fol.Const([]string{"acme", "device id", "user"}[r.Intn(3)])
}

// randomSentence draws a closed formula over every connective, both
// quantifiers, equality, ⊤ and ⊥, the predicates p/1, q/2 and r/0, and
// the placeholders cond_a and cond_b.
func randomSentence(r *rand.Rand, depth int, scope []string) *fol.Formula {
	if depth <= 0 || r.Intn(5) == 0 {
		switch r.Intn(8) {
		case 0:
			return fol.Pred("p", randomTerm(r, 1, scope))
		case 1:
			return fol.Pred("q", randomTerm(r, 1, scope), randomTerm(r, 1, scope))
		case 2:
			return fol.Pred("r")
		case 3:
			return fol.Eq(randomTerm(r, 1, scope), randomTerm(r, 1, scope))
		case 4:
			return fol.True()
		case 5:
			return fol.False()
		default:
			return fol.UninterpretedPred([]string{"cond_a", "cond_b"}[r.Intn(2)])
		}
	}
	sub := func() *fol.Formula { return randomSentence(r, depth-1, scope) }
	switch r.Intn(7) {
	case 0:
		return fol.Not(sub())
	case 1:
		return &fol.Formula{Op: fol.OpAnd, Sub: []*fol.Formula{sub(), sub(), sub()}[:2+r.Intn(2)]}
	case 2:
		return fol.Or(sub(), sub())
	case 3:
		return fol.Implies(sub(), sub())
	case 4:
		return fol.Iff(sub(), sub())
	}
	v := fmt.Sprintf("x%d", len(scope))
	body := randomSentence(r, depth-1, append(scope, v))
	if r.Intn(2) == 0 {
		return fol.Forall(v, body)
	}
	return fol.Exists(v, body)
}

// TestCompileQueryMatchesReference: on random questions the compiled
// script equals the A/L reference expression for expression (lists and
// atoms alike, empty lists included), prints the same bytes and decodes
// to the same problem.
func TestCompileQueryMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	compiled := 0
	for iter := 0; iter < 2000; iter++ {
		policy, negGoal := randomSentence(r, 4, nil), fol.Not(randomSentence(r, 3, nil))
		var goals [][]*fol.Formula
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			var lits []*fol.Formula
			for _, ph := range []string{"cond_a", "cond_b"}[:r.Intn(3)] {
				lit := fol.UninterpretedPred(ph)
				if r.Intn(2) == 0 {
					lit = fol.Not(lit)
				}
				lits = append(lits, lit)
			}
			goals = append(goals, lits)
		}
		opts := CompileOptions{Comment: []string{"", `a "quoted" note`}[r.Intn(2)], Logic: []string{"", "UFLIA"}[r.Intn(2)]}
		got, gerr := CompileQuery(policy, negGoal, goals, opts)
		want, werr := referenceCompileQuery(policy, negGoal, goals, opts)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("iter %d: error %v, reference error %v", iter, gerr, werr)
		}
		if werr != nil {
			continue
		}
		compiled++
		if !reflect.DeepEqual(got.Commands, want.Commands) {
			t.Fatalf("iter %d: commands differ:\n%s\nreference:\n%s", iter, got, want)
		}
		if got.String() != want.String() {
			t.Fatalf("iter %d: script\n%s\nreference:\n%s", iter, got, want)
		}
		gp, gerr := Decode(got.Commands)
		wp, werr := Decode(want.Commands)
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("iter %d: decode %v (%v), reference %v (%v)", iter, gp, gerr, wp, werr)
		}
	}
	if compiled < 1000 {
		t.Errorf("only %d of 2000 questions compiled", compiled)
	}
}
