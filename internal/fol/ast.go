// Package fol implements the first-order-logic representation used by the
// pipeline: terms and formulas, free-variable analysis, substitution,
// normal-form transformations (NNF, prenex, Skolemization, ground CNF) and a
// structural simplifier.
//
// Vague policy conditions ("legitimate business purpose", "required by law")
// are represented as ordinary predicates whose symbols are tagged as
// uninterpreted; the tag is preserved through every transformation so the
// final SMT encoding can surface them as the explicit ambiguity placeholders
// the paper calls for.
package fol

import (
	"fmt"
	"sort"
)

// Term is a first-order term: a variable, a constant, or a function
// application.
type Term struct {
	// Kind discriminates the term variant.
	Kind TermKind
	// Name is the variable, constant or function symbol.
	Name string
	// Args holds function arguments; nil unless Kind == TermApp.
	Args []Term
}

// TermKind enumerates term variants.
type TermKind int

// Term variants.
const (
	// TermVar is a quantified or free variable.
	TermVar TermKind = iota
	// TermConst is an individual constant.
	TermConst
	// TermApp is a function application.
	TermApp
)

// Var constructs a variable term.
func Var(name string) Term { return Term{Kind: TermVar, Name: name} }

// Const constructs a constant term.
func Const(name string) Term { return Term{Kind: TermConst, Name: name} }

// App constructs a function application term.
func App(fn string, args ...Term) Term {
	return Term{Kind: TermApp, Name: fn, Args: args}
}

// Equal reports structural equality of two terms.
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind || t.Name != u.Name || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(u.Args[i]) {
			return false
		}
	}
	return true
}

// String renders the term in conventional notation: x, c, f(a,b).
func (t Term) String() string {
	if t.Kind != TermApp {
		return t.Name
	}
	var buf [64]byte
	return string(t.appendTo(buf[:0]))
}

// appendTo appends the term's String to b.
func (t Term) appendTo(b []byte) []byte {
	b = append(b, t.Name...)
	if t.Kind != TermApp {
		return b
	}
	return appendTerms(b, t.Args)
}

// appendTerms appends "(" ts joined by "," ")" to b.
func appendTerms(b []byte, ts []Term) []byte {
	b = append(b, '(')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = t.appendTo(b)
	}
	return append(b, ')')
}

// Op enumerates formula connectives and atoms.
type Op int

// Formula operators.
const (
	// OpPred is an atomic predicate application.
	OpPred Op = iota
	// OpEq is term equality.
	OpEq
	// OpNot is negation; Sub[0] is the operand.
	OpNot
	// OpAnd is n-ary conjunction over Sub.
	OpAnd
	// OpOr is n-ary disjunction over Sub.
	OpOr
	// OpImplies is implication; Sub[0] -> Sub[1].
	OpImplies
	// OpIff is bi-implication; Sub[0] <-> Sub[1].
	OpIff
	// OpForall is universal quantification of Bound over Sub[0].
	OpForall
	// OpExists is existential quantification of Bound over Sub[0].
	OpExists
	// OpTrue is the true constant.
	OpTrue
	// OpFalse is the false constant.
	OpFalse
)

// String returns the operator's conventional symbol.
func (o Op) String() string {
	switch o {
	case OpPred:
		return "pred"
	case OpEq:
		return "="
	case OpNot:
		return "¬"
	case OpAnd:
		return "∧"
	case OpOr:
		return "∨"
	case OpImplies:
		return "→"
	case OpIff:
		return "↔"
	case OpForall:
		return "∀"
	case OpExists:
		return "∃"
	case OpTrue:
		return "⊤"
	case OpFalse:
		return "⊥"
	default:
		return "?"
	}
}

// Formula is a first-order formula. The zero value is not meaningful; use
// the constructors.
type Formula struct {
	// Op discriminates the node.
	Op Op
	// Pred is the predicate symbol for OpPred.
	Pred string
	// Uninterpreted marks OpPred atoms whose symbol stands for a vague or
	// externally-defined policy condition preserved for human review.
	Uninterpreted bool
	// Terms are the predicate arguments (OpPred) or the equality sides
	// (OpEq, exactly two).
	Terms []Term
	// Sub holds operand formulas for connectives and quantifiers.
	Sub []*Formula
	// Bound is the variable bound by OpForall/OpExists.
	Bound string
}

// Pred constructs an atomic predicate application.
func Pred(name string, args ...Term) *Formula {
	return &Formula{Op: OpPred, Pred: name, Terms: args}
}

// UninterpretedPred constructs an atom tagged as an explicit ambiguity
// placeholder (e.g. required_by_law).
func UninterpretedPred(name string, args ...Term) *Formula {
	return &Formula{Op: OpPred, Pred: name, Terms: args, Uninterpreted: true}
}

// Eq constructs the equality a = b.
func Eq(a, b Term) *Formula { return &Formula{Op: OpEq, Terms: []Term{a, b}} }

// Not constructs the negation of f.
func Not(f *Formula) *Formula { return &Formula{Op: OpNot, Sub: []*Formula{f}} }

// And constructs the conjunction of fs. And() is True; And(f) is f.
func And(fs ...*Formula) *Formula {
	switch len(fs) {
	case 0:
		return True()
	case 1:
		return fs[0]
	}
	return &Formula{Op: OpAnd, Sub: fs}
}

// Or constructs the disjunction of fs. Or() is False; Or(f) is f.
func Or(fs ...*Formula) *Formula {
	switch len(fs) {
	case 0:
		return False()
	case 1:
		return fs[0]
	}
	return &Formula{Op: OpOr, Sub: fs}
}

// Implies constructs p -> q.
func Implies(p, q *Formula) *Formula {
	return &Formula{Op: OpImplies, Sub: []*Formula{p, q}}
}

// Iff constructs p <-> q.
func Iff(p, q *Formula) *Formula {
	return &Formula{Op: OpIff, Sub: []*Formula{p, q}}
}

// Forall constructs ∀v. f.
func Forall(v string, f *Formula) *Formula {
	return &Formula{Op: OpForall, Bound: v, Sub: []*Formula{f}}
}

// Exists constructs ∃v. f.
func Exists(v string, f *Formula) *Formula {
	return &Formula{Op: OpExists, Bound: v, Sub: []*Formula{f}}
}

// True returns the ⊤ constant.
func True() *Formula { return &Formula{Op: OpTrue} }

// False returns the ⊥ constant.
func False() *Formula { return &Formula{Op: OpFalse} }

// Equal reports structural equality (no alpha-equivalence).
func (f *Formula) Equal(g *Formula) bool {
	if f == nil || g == nil {
		return f == g
	}
	if f.Op != g.Op || f.Pred != g.Pred || f.Bound != g.Bound ||
		len(f.Terms) != len(g.Terms) || len(f.Sub) != len(g.Sub) {
		return false
	}
	for i := range f.Terms {
		if !f.Terms[i].Equal(g.Terms[i]) {
			return false
		}
	}
	for i := range f.Sub {
		if !f.Sub[i].Equal(g.Sub[i]) {
			return false
		}
	}
	return true
}

// String renders the formula with conventional unicode connectives.
func (f *Formula) String() string {
	var buf [256]byte
	return string(f.appendTo(buf[:0]))
}

// appendTo appends the formula's String to b. It is the one printer:
// String copies its bytes out, and Simplify keys its deduplication on them.
func (f *Formula) appendTo(b []byte) []byte {
	switch f.Op {
	case OpTrue, OpFalse:
		return append(b, f.Op.String()...)
	case OpPred:
		b = append(b, f.Pred...)
		if len(f.Terms) == 0 {
			return b
		}
		return appendTerms(b, f.Terms)
	case OpEq:
		b = f.Terms[0].appendTo(append(b, '('))
		b = f.Terms[1].appendTo(append(b, " = "...))
		return append(b, ')')
	case OpNot:
		return f.Sub[0].appendTo(append(b, "¬"...))
	case OpAnd, OpOr:
		b = append(b, '(')
		for i, s := range f.Sub {
			if i > 0 {
				b = append(append(append(b, ' '), f.Op.String()...), ' ')
			}
			b = s.appendTo(b)
		}
		return append(b, ')')
	case OpImplies, OpIff:
		b = f.Sub[0].appendTo(append(b, '('))
		b = append(append(append(b, ' '), f.Op.String()...), ' ')
		return append(f.Sub[1].appendTo(b), ')')
	case OpForall, OpExists:
		b = append(append(append(b, f.Op.String()...), f.Bound...), ". "...)
		return f.Sub[0].appendTo(b)
	default:
		return fmt.Appendf(b, "<bad op %d>", f.Op)
	}
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	if f == nil {
		return nil
	}
	g := &Formula{Op: f.Op, Pred: f.Pred, Bound: f.Bound, Uninterpreted: f.Uninterpreted}
	if f.Terms != nil {
		g.Terms = make([]Term, len(f.Terms))
		copy(g.Terms, f.Terms) // Term args are shared; terms are immutable by convention
	}
	if f.Sub != nil {
		g.Sub = make([]*Formula, len(f.Sub))
		for i, s := range f.Sub {
			g.Sub[i] = s.Clone()
		}
	}
	return g
}

// Size returns the number of formula nodes, a proxy for clause complexity
// used by the benchmarks.
func (f *Formula) Size() int {
	if f == nil {
		return 0
	}
	n := 1
	for _, s := range f.Sub {
		n += s.Size()
	}
	return n
}

// UninterpretedAtoms returns the distinct predicate symbols tagged as
// ambiguity placeholders, sorted. These are the terms the paper says must be
// surfaced for human interpretation.
func (f *Formula) UninterpretedAtoms() []string {
	set := map[string]bool{}
	var walk func(g *Formula)
	walk = func(g *Formula) {
		if g.Op == OpPred && g.Uninterpreted {
			set[g.Pred] = true
		}
		for _, s := range g.Sub {
			walk(s)
		}
	}
	walk(f)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
