package smtlib

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// The compiler from FOL formulas to a script, as the query engine ran it
// before each question's script was written in one pass over its
// statements (internal/query/script.go). It stays as test code, with the
// s-expression builder, printed-size hint and signature walk only it
// uses, so this package's compile tests and compile_ref_test.go keep
// checking it.

// Script is an SMT-LIB v2 script: an ordered list of commands.
type Script struct {
	// Commands holds the script's commands in order.
	Commands []*SExpr
}

// Atoms and commands every compiled script uses. An SExpr is never
// modified once built, so scripts share these instead of allocating one
// per use.
var (
	kwSetLogic         = A("set-logic")
	kwSetInfo          = A("set-info")
	kwSource           = A(":source")
	kwPlaceholder      = A(":uninterpreted-placeholder")
	kwDeclareSort      = A("declare-sort")
	kwDeclareConst     = A("declare-const")
	kwDeclareFun       = A("declare-fun")
	kwAssert           = A("assert")
	kwCheckSatAssuming = A("check-sat-assuming")
	kwTrue             = A("true")
	kwFalse            = A("false")
	kwNot              = A("not")
	kwAnd              = A("and")
	kwOr               = A("or")
	kwImplies          = A("=>")
	kwEq               = A("=")
	kwForall           = A("forall")
	kwExists           = A("exists")
	kwBool             = A("Bool")
	kwU                = A(USort)
	kw0                = A("0")

	cmdProduceModels = L(A("set-option"), A(":produce-models"), kwTrue)
	cmdCheckSat      = L(A("check-sat"))
	cmdPush          = L(A("push"), A("1"))
	cmdPop           = L(A("pop"), A("1"))
)

// sortAtom returns the atom of a sort name, the shared one for USort and
// Bool.
func sortAtom(name string) *SExpr {
	switch name {
	case USort:
		return kwU
	case "Bool":
		return kwBool
	}
	return A(name)
}

// NewScript returns a script preloaded with the standard header the paper's
// compiler emits: logic and model production option.
func NewScript(logic string) *Script {
	s := &Script{}
	s.Add(L(kwSetLogic, A(logic)))
	s.Add(cmdProduceModels)
	return s
}

// Add appends a command.
func (s *Script) Add(cmd *SExpr) { s.Commands = append(s.Commands, cmd) }

// String renders the script, one command per line.
func (s *Script) String() string {
	n := len(s.Commands)
	for _, c := range s.Commands {
		n += c.printedLen()
	}
	var b strings.Builder
	b.Grow(n)
	for _, c := range s.Commands {
		c.write(&b)
		b.WriteByte('\n')
	}
	return b.String()
}

// DeclareSort appends (declare-sort name 0).
func (s *Script) DeclareSort(name string) {
	s.Add(L(kwDeclareSort, sortAtom(name), kw0))
}

// DeclareConst appends (declare-const name sort).
func (s *Script) DeclareConst(name, sort string) {
	s.Add(L(kwDeclareConst, A(name), sortAtom(sort)))
}

// DeclareFun appends (declare-fun name (U...) retSort), with arity USort
// arguments: every compiled symbol ranges over the one sort.
func (s *Script) DeclareFun(name string, arity int, retSort string) {
	args := make([]*SExpr, arity)
	for i := range args {
		args[i] = kwU
	}
	s.Add(L(kwDeclareFun, A(name), L(args...), sortAtom(retSort)))
}

// Assert appends (assert e).
func (s *Script) Assert(e *SExpr) { s.Add(L(kwAssert, e)) }

// CheckSat appends (check-sat).
func (s *Script) CheckSat() { s.Add(cmdCheckSat) }

// CheckSatAssuming appends (check-sat-assuming (lits...)).
func (s *Script) CheckSatAssuming(lits ...*SExpr) {
	s.Add(L(kwCheckSatAssuming, L(lits...)))
}

// Push and Pop append incremental-solving scope commands.
func (s *Script) Push() { s.Add(cmdPush) }

// Pop appends (pop 1).
func (s *Script) Pop() { s.Add(cmdPop) }

// TermToSExpr converts a FOL term to its SMT-LIB rendering.
func TermToSExpr(t fol.Term) *SExpr {
	switch t.Kind {
	case fol.TermVar, fol.TermConst:
		return A(t.Name)
	case fol.TermApp:
		items := make([]*SExpr, 0, len(t.Args)+1)
		items = append(items, A(t.Name))
		for _, a := range t.Args {
			items = append(items, TermToSExpr(a))
		}
		return L(items...)
	default:
		panic(fmt.Sprintf("smtlib: bad term kind %d", t.Kind))
	}
}

// FormulaToSExpr converts a FOL formula to its SMT-LIB rendering. Quantified
// variables are sorted as USort.
func FormulaToSExpr(f *fol.Formula) *SExpr {
	switch f.Op {
	case fol.OpTrue:
		return kwTrue
	case fol.OpFalse:
		return kwFalse
	case fol.OpPred:
		if len(f.Terms) == 0 {
			return A(f.Pred)
		}
		items := make([]*SExpr, 0, len(f.Terms)+1)
		items = append(items, A(f.Pred))
		for _, t := range f.Terms {
			items = append(items, TermToSExpr(t))
		}
		return L(items...)
	case fol.OpEq:
		return L(kwEq, TermToSExpr(f.Terms[0]), TermToSExpr(f.Terms[1]))
	case fol.OpNot:
		return L(kwNot, FormulaToSExpr(f.Sub[0]))
	case fol.OpAnd, fol.OpOr:
		op := kwAnd
		if f.Op == fol.OpOr {
			op = kwOr
		}
		items := make([]*SExpr, 0, len(f.Sub)+1)
		items = append(items, op)
		for _, s := range f.Sub {
			items = append(items, FormulaToSExpr(s))
		}
		return L(items...)
	case fol.OpImplies:
		return L(kwImplies, FormulaToSExpr(f.Sub[0]), FormulaToSExpr(f.Sub[1]))
	case fol.OpIff:
		return L(kwEq, FormulaToSExpr(f.Sub[0]), FormulaToSExpr(f.Sub[1]))
	case fol.OpForall, fol.OpExists:
		op := kwForall
		if f.Op == fol.OpExists {
			op = kwExists
		}
		binder := L(L(A(f.Bound), kwU))
		return L(op, binder, FormulaToSExpr(f.Sub[0]))
	default:
		panic(fmt.Sprintf("smtlib: bad op %d", f.Op))
	}
}

// CompileOptions controls CompileQuery.
type CompileOptions struct {
	// Logic is the SMT-LIB logic name; defaults to "UF".
	Logic string
	// Comment, when non-empty, is emitted as a leading set-info line.
	Comment string
}

// CompileQuery compiles the checks of one validity question into a single
// script that a solver answers on one ground core:
//
//	(assert policy)
//	(push 1)
//	(assert negGoal)
//	(check-sat)                     ; one per goal check: an empty set
//	(check-sat-assuming (lits...))  ; is a plain check-sat, unsat means
//	                                ; the goal follows under the literals
//	(pop 1)
//	(check-sat)                     ; policy alone: unsat means the
//	                                ; policy contradicts itself
//
// Each goal check is a set of assumed literals: nullary predicates,
// possibly negated. Sort and symbol declarations are inferred from the
// signature of the formulas and the literals, so an assumed placeholder is
// declared even when simplification removed it from the policy. Free
// variables are rejected — callers must quantify or ground them first.
func CompileQuery(policy, negGoal *fol.Formula, goals [][]*fol.Formula, opts CompileOptions) (*Script, error) {
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
	consts, funcs, preds := sortedKeys(sig.Consts), sortedKeysInt(sig.Funcs), sortedKeysInt(sig.Preds)
	// Room for the comment, sort, declarations, placeholder tags, the two
	// asserts, push, the goal checks, pop and the last check.
	n := 1 + 1 + len(consts) + len(funcs) + len(preds) + len(sig.Uninterpreted) + 2 + 1 + len(goals) + 2
	s := NewScript(logic)
	s.Commands = slices.Grow(s.Commands, n)
	if opts.Comment != "" {
		s.Add(L(kwSetInfo, kwSource, A("\""+strings.ReplaceAll(opts.Comment, `"`, `'`)+"\"")))
	}
	s.DeclareSort(USort)

	for _, c := range consts {
		s.DeclareConst(c, USort)
	}
	for _, fn := range funcs {
		s.DeclareFun(fn, sig.Funcs[fn], USort)
	}
	for _, p := range preds {
		if sig.Uninterpreted[p] {
			s.Add(L(kwSetInfo, kwPlaceholder, A(p)))
		}
		s.DeclareFun(p, sig.Preds[p], "Bool")
	}

	s.Assert(FormulaToSExpr(policy))
	s.Push()
	s.Assert(FormulaToSExpr(negGoal))
	for _, lits := range goals {
		if len(lits) == 0 {
			s.CheckSat()
			continue
		}
		exprs := make([]*SExpr, len(lits))
		for i, lit := range lits {
			exprs[i] = FormulaToSExpr(lit)
		}
		s.CheckSatAssuming(exprs...)
	}
	s.Pop()
	s.CheckSat()
	return s, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysInt(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// L returns a list expression.
func L(items ...*SExpr) *SExpr {
	if items == nil {
		items = []*SExpr{}
	}
	return &SExpr{List: items}
}

// printedLen is the length of e's printed form when none of its atoms is
// quoted or escaped, which each lengthen it by a few bytes: a size hint.
func (e *SExpr) printedLen() int {
	if e.IsAtom() {
		return len(e.Atom)
	}
	n := 1 + max(len(e.List), 1) // the parentheses and the spaces between items
	for _, it := range e.List {
		n += it.printedLen()
	}
	return n
}

// freeVars returns the free variables of f, sorted.
func freeVars(f *fol.Formula) []string {
	set := map[string]bool{}
	collectFree(f, map[string]bool{}, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectFree(f *fol.Formula, bound map[string]bool, out map[string]bool) {
	for _, t := range f.Terms {
		collectFreeTerm(t, bound, out)
	}
	switch f.Op {
	case fol.OpForall, fol.OpExists:
		was := bound[f.Bound]
		bound[f.Bound] = true
		collectFree(f.Sub[0], bound, out)
		bound[f.Bound] = was
	default:
		for _, s := range f.Sub {
			collectFree(s, bound, out)
		}
	}
}

func collectFreeTerm(t fol.Term, bound map[string]bool, out map[string]bool) {
	switch t.Kind {
	case fol.TermVar:
		if !bound[t.Name] {
			out[t.Name] = true
		}
	case fol.TermApp:
		for _, a := range t.Args {
			collectFreeTerm(a, bound, out)
		}
	}
}

// signature describes the symbols of a formula: predicate and function
// arities plus the constants, so a compiler can emit declarations.
type signature struct {
	// Preds maps predicate symbols to arity.
	Preds map[string]int
	// Funcs maps function symbols to arity.
	Funcs map[string]int
	// Consts is the set of constant symbols.
	Consts map[string]bool
	// Uninterpreted is the subset of Preds tagged as ambiguity
	// placeholders.
	Uninterpreted map[string]bool
}

// signatureOf computes the signature of f. Inconsistent arities for the same
// symbol return an error, since they would produce an ill-typed SMT script.
func signatureOf(f *fol.Formula) (*signature, error) {
	sig := &signature{
		Preds:         map[string]int{},
		Funcs:         map[string]int{},
		Consts:        map[string]bool{},
		Uninterpreted: map[string]bool{},
	}
	var walkTerm func(t fol.Term) error
	walkTerm = func(t fol.Term) error {
		switch t.Kind {
		case fol.TermConst:
			sig.Consts[t.Name] = true
		case fol.TermApp:
			if a, ok := sig.Funcs[t.Name]; ok && a != len(t.Args) {
				return fmt.Errorf("fol: function %q used with arities %d and %d", t.Name, a, len(t.Args))
			}
			sig.Funcs[t.Name] = len(t.Args)
			for _, a := range t.Args {
				if err := walkTerm(a); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var walk func(g *fol.Formula) error
	walk = func(g *fol.Formula) error {
		if g.Op == fol.OpPred {
			if a, ok := sig.Preds[g.Pred]; ok && a != len(g.Terms) {
				return fmt.Errorf("fol: predicate %q used with arities %d and %d", g.Pred, a, len(g.Terms))
			}
			sig.Preds[g.Pred] = len(g.Terms)
			if g.Uninterpreted {
				sig.Uninterpreted[g.Pred] = true
			}
		}
		for _, t := range g.Terms {
			if err := walkTerm(t); err != nil {
				return err
			}
		}
		for _, s := range g.Sub {
			if err := walk(s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(f); err != nil {
		return nil, err
	}
	return sig, nil
}
