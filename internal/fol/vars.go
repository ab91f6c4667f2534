package fol

import "fmt"

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
