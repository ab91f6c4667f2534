package fol

import (
	"fmt"
	"sort"
)

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

// SubstTerm replaces free occurrences of variable v in t with r.
func SubstTerm(t Term, v string, r Term) Term {
	switch t.Kind {
	case TermVar:
		if t.Name == v {
			return r
		}
		return t
	case TermApp:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = SubstTerm(a, v, r)
		}
		return Term{Kind: TermApp, Name: t.Name, Args: args}
	default:
		return t
	}
}

// Subst replaces free occurrences of variable v in f with term r. Bound
// occurrences shadow; capture is avoided by renaming the binder when r
// mentions it.
func Subst(f *Formula, v string, r Term) *Formula {
	switch f.Op {
	case OpTrue, OpFalse:
		return f
	case OpPred, OpEq:
		terms := make([]Term, len(f.Terms))
		for i, t := range f.Terms {
			terms[i] = SubstTerm(t, v, r)
		}
		return &Formula{Op: f.Op, Pred: f.Pred, Uninterpreted: f.Uninterpreted, Terms: terms}
	case OpForall, OpExists:
		if f.Bound == v {
			return f // v is shadowed
		}
		if termMentions(r, f.Bound) {
			// Capture: rename the binder first.
			fresh := freshVar(f.Bound, func(name string) bool {
				return termMentions(r, name) || formulaMentions(f.Sub[0], name)
			})
			body := Subst(f.Sub[0], f.Bound, Var(fresh))
			return &Formula{Op: f.Op, Bound: fresh, Sub: []*Formula{Subst(body, v, r)}}
		}
		return &Formula{Op: f.Op, Bound: f.Bound, Sub: []*Formula{Subst(f.Sub[0], v, r)}}
	default:
		sub := make([]*Formula, len(f.Sub))
		for i, s := range f.Sub {
			sub[i] = Subst(s, v, r)
		}
		return &Formula{Op: f.Op, Sub: sub}
	}
}

func termMentions(t Term, v string) bool {
	switch t.Kind {
	case TermVar:
		return t.Name == v
	case TermApp:
		for _, a := range t.Args {
			if termMentions(a, v) {
				return true
			}
		}
	}
	return false
}

func formulaMentions(f *Formula, v string) bool {
	for _, t := range f.Terms {
		if termMentions(t, v) {
			return true
		}
	}
	if f.Op == OpForall || f.Op == OpExists {
		if f.Bound == v {
			return true
		}
	}
	for _, s := range f.Sub {
		if formulaMentions(s, v) {
			return true
		}
	}
	return false
}

// freshVar derives a name from base that does not satisfy taken.
func freshVar(base string, taken func(string) bool) string {
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s_%d", base, i)
		if !taken(cand) {
			return cand
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
