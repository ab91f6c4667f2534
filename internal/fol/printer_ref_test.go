package fol

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// referenceTermString and referenceString are the recursive printers the
// one append printer replaced: a parts slice, strings.Join and a
// concatenation at every node. Term.String and Formula.String must print
// the same bytes.
func referenceTermString(t Term) string {
	if t.Kind != TermApp {
		return t.Name
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = referenceTermString(a)
	}
	return t.Name + "(" + strings.Join(parts, ",") + ")"
}

func referenceString(f *Formula) string {
	switch f.Op {
	case OpTrue:
		return "⊤"
	case OpFalse:
		return "⊥"
	case OpPred:
		if len(f.Terms) == 0 {
			return f.Pred
		}
		parts := make([]string, len(f.Terms))
		for i, t := range f.Terms {
			parts[i] = referenceTermString(t)
		}
		return f.Pred + "(" + strings.Join(parts, ",") + ")"
	case OpEq:
		return "(" + referenceTermString(f.Terms[0]) + " = " + referenceTermString(f.Terms[1]) + ")"
	case OpNot:
		return "¬" + referenceString(f.Sub[0])
	case OpAnd, OpOr:
		parts := make([]string, len(f.Sub))
		for i, s := range f.Sub {
			parts[i] = referenceString(s)
		}
		return "(" + strings.Join(parts, " "+f.Op.String()+" ") + ")"
	case OpImplies:
		return "(" + referenceString(f.Sub[0]) + " → " + referenceString(f.Sub[1]) + ")"
	case OpIff:
		return "(" + referenceString(f.Sub[0]) + " ↔ " + referenceString(f.Sub[1]) + ")"
	case OpForall, OpExists:
		return f.Op.String() + f.Bound + ". " + referenceString(f.Sub[0])
	default:
		return fmt.Sprintf("<bad op %d>", f.Op)
	}
}

// referenceSimplify is Simplify as it was when it keyed deduplication on
// referenceString: Simplify must return the same formula.
func referenceSimplify(f *Formula) *Formula {
	switch f.Op {
	case OpTrue, OpFalse, OpPred, OpEq:
		return f
	case OpNot:
		s := referenceSimplify(f.Sub[0])
		switch s.Op {
		case OpTrue:
			return False()
		case OpFalse:
			return True()
		case OpNot:
			return s.Sub[0]
		}
		return Not(s)
	case OpAnd, OpOr:
		identity, absorber := OpTrue, OpFalse
		if f.Op == OpOr {
			identity, absorber = OpFalse, OpTrue
		}
		var flat []*Formula
		seen := map[string]bool{}
		negSeen := map[string]bool{}
		contradiction := false
		var add func(s *Formula)
		add = func(s *Formula) {
			if s.Op == f.Op {
				for _, x := range s.Sub {
					add(x)
				}
				return
			}
			if s.Op == identity {
				return
			}
			if s.Op == absorber {
				contradiction = true
				return
			}
			key := referenceString(s)
			if seen[key] {
				return
			}
			// Complementary pair detection.
			if s.Op == OpNot {
				if seen[referenceString(s.Sub[0])] {
					contradiction = true
					return
				}
				negSeen[referenceString(s.Sub[0])] = true
			} else if negSeen[key] {
				contradiction = true
				return
			}
			seen[key] = true
			flat = append(flat, s)
		}
		for _, s := range f.Sub {
			add(referenceSimplify(s))
		}
		if contradiction {
			if f.Op == OpAnd {
				return False()
			}
			return True()
		}
		switch len(flat) {
		case 0:
			if f.Op == OpAnd {
				return True()
			}
			return False()
		case 1:
			return flat[0]
		}
		return &Formula{Op: f.Op, Sub: flat}
	case OpImplies:
		p, q := referenceSimplify(f.Sub[0]), referenceSimplify(f.Sub[1])
		switch {
		case p.Op == OpFalse || q.Op == OpTrue:
			return True()
		case p.Op == OpTrue:
			return q
		case q.Op == OpFalse:
			return referenceSimplify(Not(p))
		}
		return Implies(p, q)
	case OpIff:
		p, q := referenceSimplify(f.Sub[0]), referenceSimplify(f.Sub[1])
		switch {
		case p.Op == OpTrue:
			return q
		case q.Op == OpTrue:
			return p
		case p.Op == OpFalse:
			return referenceSimplify(Not(q))
		case q.Op == OpFalse:
			return referenceSimplify(Not(p))
		case p.Equal(q):
			return True()
		}
		return Iff(p, q)
	case OpForall, OpExists:
		body := referenceSimplify(f.Sub[0])
		if body.Op == OpTrue || body.Op == OpFalse {
			return body // vacuous quantification over nonempty domain
		}
		// Drop quantifier when the variable does not occur.
		if !formulaMentions(body, f.Bound) {
			return body
		}
		return &Formula{Op: f.Op, Bound: f.Bound, Sub: []*Formula{body}}
	default:
		return f
	}
}

// printerNames are the symbols random formulas draw from: ASCII, the
// connectives' own characters, non-ASCII letters, an empty name and
// invalid UTF-8.
var printerNames = []string{"p", "q", "share", "x", "a b", "¬p", "∧", "(", ",", "é", "", "\xff", "cond_legitimate_business_purpose"}

// randomPrinted draws a formula over every operator, empty and long
// conjunctions, nullary predicates, function terms of any arity, repeated
// and complementary operands, and a bad operator at the leaves.
func randomPrinted(r *rand.Rand, depth int) *Formula {
	name := func() string { return printerNames[r.Intn(len(printerNames))] }
	var term func(d int) Term
	term = func(d int) Term {
		switch r.Intn(3) {
		case 0:
			return Var(name())
		case 1:
			return Const(name())
		}
		var args []Term
		for i, n := 0, r.Intn(3); d > 0 && i < n; i++ {
			args = append(args, term(d-1))
		}
		return App(name(), args...)
	}
	if depth <= 0 {
		switch r.Intn(7) {
		case 0:
			return True()
		case 1:
			return False()
		case 2:
			return Eq(term(2), term(2))
		case 3:
			return &Formula{Op: Op(40 + r.Intn(3))}
		}
		var args []Term
		for i, n := 0, r.Intn(3); i < n; i++ {
			args = append(args, term(2))
		}
		return &Formula{Op: OpPred, Pred: name(), Terms: args, Uninterpreted: r.Intn(3) == 0}
	}
	sub := func() *Formula { return randomPrinted(r, depth-1) }
	switch r.Intn(8) {
	case 0:
		return Not(sub())
	case 1, 2:
		op := OpAnd
		if r.Intn(2) == 0 {
			op = OpOr
		}
		var fs []*Formula
		for i, n := 0, r.Intn(5); i < n; i++ {
			switch {
			case len(fs) > 0 && r.Intn(4) == 0:
				fs = append(fs, fs[r.Intn(len(fs))].Clone())
			case len(fs) > 0 && r.Intn(4) == 0:
				fs = append(fs, Not(fs[r.Intn(len(fs))]))
			default:
				fs = append(fs, sub())
			}
		}
		return &Formula{Op: op, Sub: fs}
	case 3:
		return Implies(sub(), sub())
	case 4:
		return Iff(sub(), sub())
	case 5:
		return Forall(name(), sub())
	case 6:
		return Exists(name(), sub())
	}
	return sub()
}

// printerDiff reports how the printer and Simplify differ from their
// references on f, or "" when they agree.
func printerDiff(f *Formula) string {
	if got, want := f.String(), referenceString(f); got != want {
		return fmt.Sprintf("String = %q, reference %q", got, want)
	}
	for _, t := range f.Terms {
		if got, want := t.String(), referenceTermString(t); got != want {
			return fmt.Sprintf("Term.String = %q, reference %q", got, want)
		}
	}
	if got, want := Simplify(f), referenceSimplify(f); !got.Equal(want) || got.String() != referenceString(want) {
		return fmt.Sprintf("Simplify = %s, reference %s", got, referenceString(want))
	}
	return ""
}

// TestPrinterMatchesReference: on 20,000 random formulas String prints the
// reference's bytes, and Simplify, keyed on the printer, returns the
// formula the reference Simplify returns.
func TestPrinterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 20000; i++ {
		f := randomPrinted(r, r.Intn(6))
		if d := printerDiff(f); d != "" {
			t.Fatalf("formula %d: %s", i, d)
		}
	}
}

// FuzzFormulaPrinter: for any formula drawn from seed, String and Simplify
// match their references.
func FuzzFormulaPrinter(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 61} {
		f.Add(seed, uint8(4))
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		r := rand.New(rand.NewSource(seed))
		g := randomPrinted(r, int(depth%8))
		if d := printerDiff(g); d != "" {
			t.Fatalf("seed %d depth %d: %s", seed, depth%8, d)
		}
	})
}
