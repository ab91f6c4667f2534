package fol

import (
	"fmt"
	"sort"
)

// FreeVars and SignatureOf were the query compiler's checks on a formula
// before it declared the formula's symbols; nothing in the program derives
// either any more. FreeVars stays as the oracle of the substitution tests.

// FreeVars returns the free variables of f, sorted.
func FreeVars(f *Formula) []string {
	set := map[string]bool{}
	collectFree(f, map[string]bool{}, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectFree(f *Formula, bound map[string]bool, out map[string]bool) {
	for _, t := range f.Terms {
		collectFreeTerm(t, bound, out)
	}
	switch f.Op {
	case OpForall, OpExists:
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

func collectFreeTerm(t Term, bound map[string]bool, out map[string]bool) {
	switch t.Kind {
	case TermVar:
		if !bound[t.Name] {
			out[t.Name] = true
		}
	case TermApp:
		for _, a := range t.Args {
			collectFreeTerm(a, bound, out)
		}
	}
}

// Signature describes the symbols of a formula: predicate and function
// arities plus the constants, so a compiler can emit declarations.
type Signature struct {
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

// SignatureOf computes the signature of f. Inconsistent arities for the same
// symbol return an error, since they would produce an ill-typed SMT script.
func SignatureOf(f *Formula) (*Signature, error) {
	sig := &Signature{
		Preds:         map[string]int{},
		Funcs:         map[string]int{},
		Consts:        map[string]bool{},
		Uninterpreted: map[string]bool{},
	}
	var walkTerm func(t Term) error
	walkTerm = func(t Term) error {
		switch t.Kind {
		case TermConst:
			sig.Consts[t.Name] = true
		case TermApp:
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
	var walk func(g *Formula) error
	walk = func(g *Formula) error {
		if g.Op == OpPred {
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
