package smt

import (
	"math/rand"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// These tests pin RelevantGrounding, the default strategy, against
// FullGrounding, the reference it must agree with wherever the latter
// decides, over push / assert / check-sat-assuming / pop sequences of
// function-free, equality-free sentences.

// TestRelevantGroundingReexaminesSkippedTuples: with no P atom asserted,
// every instance of ∀x. ¬P(x) ∨ Q(x) has a pure literal and is skipped.
// A scope asserting P(a) and ¬Q(a) gives that literal an opposite, so the
// skipped instance at a must be grounded then; after pop it no longer
// constrains anything.
func TestRelevantGroundingReexaminesSkippedTuples(t *testing.T) {
	a := fol.Const("a")
	s := NewSolver()
	s.Assert(fol.Pred("R", a))
	s.Assert(fol.Forall("x", fol.Or(fol.Not(fol.Pred("P", fol.Var("x"))), fol.Pred("Q", fol.Var("x")))))
	if res := s.CheckSat(); res.Status != Sat || res.Stats.Instantiations != 0 {
		t.Fatalf("base: %v (%s) with %d instances, want sat with none", res.Status, res.Reason, res.Stats.Instantiations)
	}
	s.Push()
	s.Assert(fol.Pred("P", a))
	s.Assert(fol.Not(fol.Pred("Q", a)))
	if res := s.CheckSat(); res.Status != Unsat {
		t.Fatalf("after push: %v (%s), want unsat", res.Status, res.Reason)
	}
	s.Pop()
	if res := s.CheckSat(); res.Status != Sat {
		t.Fatalf("after pop: %v (%s), want sat", res.Status, res.Reason)
	}
}

// nullaryLeaf draws p(t), r(t, u) or one of the nullary atoms q0, q1.
func nullaryLeaf(r *rand.Rand, term func() fol.Term) *fol.Formula {
	switch r.Intn(4) {
	case 0:
		return fol.Pred("p", term())
	case 1:
		return fol.Pred("r", term(), term())
	case 2:
		return fol.Pred("q0")
	default:
		return fol.Pred("q1")
	}
}

// eprSentence draws ∀x̄. M, sometimes under one outer ∃y, with a
// quantifier-free matrix M over p, r, q0, q1 and the constants a, b: a
// function-free, equality-free sentence, whose ∃ becomes a Skolem
// constant.
func eprSentence(r *rand.Rand) *fol.Formula {
	var scope []string
	exists := r.Intn(6) == 0
	if exists {
		scope = append(scope, "y")
	}
	for k := r.Intn(3); k > 0; k-- {
		scope = append(scope, "x"+string(rune('0'+len(scope))))
	}
	f := randomSentence(r, 2, scope, nullaryLeaf, false)
	for i := len(scope) - 1; i >= 0; i-- {
		if exists && i == 0 {
			f = fol.Exists(scope[i], f)
		} else {
			f = fol.Forall(scope[i], f)
		}
	}
	return f
}

// step is one solver command of a random sequence: "assert" f, "push",
// "pop", or "check" assuming the formulas in assume.
type step struct {
	op     string
	f      *fol.Formula
	assume []*fol.Formula
}

// randomSteps draws a sequence of sentence assertions, scopes and checks,
// some checks assuming literals over q0 and q1 (SAT assumptions) and some
// a sentence (grounded in a scope of its own).
func randomSteps(r *rand.Rand) []step {
	steps := []step{{op: "assert", f: eprSentence(r)}, {op: "check"}}
	depth := 0
	for n := 3 + r.Intn(5); n > 0; n-- {
		switch k := r.Intn(7); {
		case k == 0:
			steps = append(steps, step{op: "push"})
			depth++
		case k == 1 && depth > 0:
			steps = append(steps, step{op: "pop"})
			depth--
		case k == 2:
			lit := fol.Pred([]string{"q0", "q1"}[r.Intn(2)])
			if r.Intn(2) == 0 {
				lit = fol.Not(lit)
			}
			steps = append(steps, step{op: "check", assume: []*fol.Formula{lit}})
			continue
		case k == 3:
			steps = append(steps, step{op: "check", assume: []*fol.Formula{eprSentence(r)}})
			continue
		default:
			steps = append(steps, step{op: "assert", f: eprSentence(r)})
		}
		steps = append(steps, step{op: "check"})
	}
	return steps
}

// runSteps replays steps on a fresh solver with the strategy and calls
// check with the solver and the assumptions after each check.
func runSteps(steps []step, strategy InstStrategy, check func(s *Solver, assume []*fol.Formula, res Result)) []Result {
	s := NewSolver()
	s.Limits = Limits{MaxInstantiations: 20000, MaxRounds: 4}
	s.Strategy = strategy
	var out []Result
	for _, st := range steps {
		switch st.op {
		case "assert":
			s.Assert(st.f)
		case "push":
			s.Push()
		case "pop":
			s.Pop()
		default:
			res := s.CheckSatAssuming(st.assume...)
			if check != nil {
				check(s, st.assume, res)
			}
			out = append(out, res)
		}
	}
	return out
}

// TestRelevantMatchesFullOnSequences is the differential property test:
// every check of a random sequence answers the same status under the
// default strategy as under FullGrounding, wherever FullGrounding decides.
func TestRelevantMatchesFullOnSequences(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	decided, unsat := 0, 0
	for iter := 0; iter < 4000; iter++ {
		steps := randomSteps(r)
		full := runSteps(steps, FullGrounding, nil)
		relevant := runSteps(steps, RelevantGrounding, nil)
		for i, want := range full {
			if want.Status == Unknown {
				continue
			}
			decided++
			if want.Status == Unsat {
				unsat++
			}
			if got := relevant[i]; got.Status != want.Status {
				t.Fatalf("iter %d check %d: relevant %v (%s), full %v\n%s", iter, i, got.Status, got.Reason, want.Status, formatSteps(steps))
			}
		}
	}
	t.Logf("%d decided checks, %d unsat", decided, unsat)
	if decided < 10000 || unsat < decided/10 || unsat > decided*9/10 {
		t.Fatalf("thin coverage: %d decided checks, %d unsat", decided, unsat)
	}
}

// TestRelevantModelsExtend: the nullary values of every sat answer under
// the default strategy extend to a model of the live problem. The oracle
// fixes those atoms, tries both values of every other nullary atom and
// brute-forces the rest over domains of up to three elements, which
// suffices while the live problem has at most one existential.
func TestRelevantModelsExtend(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	checked := 0
	for iter := 0; iter < 1000; iter++ {
		steps := randomSteps(r)
		runSteps(steps, RelevantGrounding, func(s *Solver, assume []*fol.Formula, res Result) {
			if res.Status != Sat {
				return
			}
			live := fol.And(append(s.Assertions(), assume...)...)
			if countExistentials(live) > 1 {
				return
			}
			checked++
			if !hasModelExtending(live, res.Model) {
				t.Fatalf("iter %d: model %v extends to no model of %s\n%s", iter, res.Model, live, formatSteps(steps))
			}
		})
	}
	t.Logf("%d sat answers checked", checked)
	if checked < 1000 {
		t.Fatalf("thin coverage: %d sat answers checked", checked)
	}
}

// hasModelExtending reports whether f has a model that gives the nullary
// atoms in fixed their values there.
func hasModelExtending(f *fol.Formula, fixed map[string]bool) bool {
	names := map[string]bool{}
	markNullaryPreds(f, names)
	var free []string
	for n := range names {
		if _, ok := fixed[n]; !ok {
			free = append(free, n)
		}
	}
	vals := map[string]bool{}
	for n, v := range fixed {
		vals[n] = v
	}
	for mask := 0; mask < 1<<len(free); mask++ {
		for i, n := range free {
			vals[n] = mask&(1<<i) != 0
		}
		if bruteForceEPR(fixNullary(f, vals), 3) {
			return true
		}
	}
	return false
}

// fixNullary replaces each nullary atom named in vals by its value.
func fixNullary(f *fol.Formula, vals map[string]bool) *fol.Formula {
	if f.Op == fol.OpPred && len(f.Terms) == 0 {
		if v, ok := vals[f.Pred]; ok {
			if v {
				return fol.True()
			}
			return fol.False()
		}
		return f
	}
	if len(f.Sub) == 0 {
		return f
	}
	g := *f
	g.Sub = make([]*fol.Formula, len(f.Sub))
	for i, sub := range f.Sub {
		g.Sub[i] = fixNullary(sub, vals)
	}
	return &g
}

// formatSteps renders a sequence for a failure message.
func formatSteps(steps []step) string {
	out := ""
	for _, st := range steps {
		out += st.op
		if st.f != nil {
			out += " " + st.f.String()
		}
		for _, a := range st.assume {
			out += " assuming " + a.String()
		}
		out += "\n"
	}
	return out
}
