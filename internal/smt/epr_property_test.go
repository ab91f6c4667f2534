package smt

import (
	"math/rand"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// The EPR oracle: a sentence over unary/binary predicates, constants
// {a, b} and quantifiers (no functions) is satisfiable over *some* finite
// model iff it is satisfiable over a model of size <= its constant count +
// quantifier count (EPR small-model property). We brute-force domains of
// sizes 1..3 with every truth assignment to ground atoms and compare with
// the solver, which must be sound in both directions on this fragment.

// randomEPR builds a random sentence; depth bounds the connective tree and
// scope tracks quantified variables.
func randomEPR(r *rand.Rand, depth int, scope []string) *fol.Formula {
	term := func() fol.Term {
		if len(scope) > 0 && r.Intn(2) == 0 {
			return fol.Var(scope[r.Intn(len(scope))])
		}
		return fol.Const([]string{"a", "b"}[r.Intn(2)])
	}
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return fol.Pred("p", term())
		case 1:
			return fol.Pred("r", term(), term())
		default:
			return fol.Eq(term(), term())
		}
	}
	switch r.Intn(6) {
	case 0:
		return fol.Not(randomEPR(r, depth-1, scope))
	case 1:
		return fol.And(randomEPR(r, depth-1, scope), randomEPR(r, depth-1, scope))
	case 2:
		return fol.Or(randomEPR(r, depth-1, scope), randomEPR(r, depth-1, scope))
	case 3:
		return fol.Implies(randomEPR(r, depth-1, scope), randomEPR(r, depth-1, scope))
	case 4:
		v := "x" + string(rune('0'+len(scope)))
		return fol.Forall(v, randomEPR(r, depth-1, append(scope, v)))
	default:
		v := "y" + string(rune('0'+len(scope)))
		return fol.Exists(v, randomEPR(r, depth-1, append(scope, v)))
	}
}

// bruteForceEPR enumerates models over domains of size 1..maxDomain.
func bruteForceEPR(f *fol.Formula, maxDomain int) bool {
	domains := [][]string{{"d0"}, {"d0", "d1"}, {"d0", "d1", "d2"}}
	for _, domain := range domains[:maxDomain] {
		n := len(domain)
		// Ground atoms: p(d) for each d, r(d,e) for each pair, plus the
		// interpretation of constants a and b as domain elements.
		nP := n
		nR := n * n
		for aIdx := 0; aIdx < n; aIdx++ {
			for bIdx := 0; bIdx < n; bIdx++ {
				for mask := 0; mask < 1<<(nP+nR); mask++ {
					in := fol.NewInterp(domain...)
					for i := 0; i < nP; i++ {
						if mask&(1<<i) != 0 {
							in.SetTrue("p", fol.Const(domain[i]))
						}
					}
					for i := 0; i < nR; i++ {
						if mask&(1<<(nP+i)) != 0 {
							in.SetTrue("r", fol.Const(domain[i/n]), fol.Const(domain[i%n]))
						}
					}
					// Interpret constants by substituting their domain
					// elements into the formula.
					g := substConst(f, "a", domain[aIdx])
					g = substConst(g, "b", domain[bIdx])
					v, err := in.Eval(g, nil)
					if err == nil && v {
						return true
					}
				}
			}
		}
	}
	return false
}

// substConst replaces a constant symbol with another constant throughout.
func substConst(f *fol.Formula, from, to string) *fol.Formula {
	g := f.Clone()
	var walkTerms func(ts []fol.Term)
	walkTerms = func(ts []fol.Term) {
		for i, t := range ts {
			if t.Kind == fol.TermConst && t.Name == from {
				ts[i] = fol.Const(to)
			}
		}
	}
	var walk func(x *fol.Formula)
	walk = func(x *fol.Formula) {
		walkTerms(x.Terms)
		for _, s := range x.Sub {
			walk(s)
		}
	}
	walk(g)
	return g
}

// countExistentials counts existential strength after NNF (negated
// universals count): it bounds the Skolem constants and hence the Herbrand
// model size 2 + E.
func countExistentials(f *fol.Formula) int {
	n := 0
	var walk func(g *fol.Formula)
	walk = func(g *fol.Formula) {
		if g.Op == fol.OpExists {
			n++
		}
		for _, s := range g.Sub {
			walk(s)
		}
	}
	walk(fol.NNF(f))
	return n
}

// TestEPRAgainstModelEnumeration cross-validates the solver on the EPR
// fragment:
//
//  1. solver Unsat ⇒ the oracle finds no model at any size ≤ 3 (a small
//     model would refute the Unsat immediately);
//  2. solver Sat with ≤1 existential ⇒ the oracle finds a model at size
//     ≤ 3 (Herbrand universe {a,b,sk1} suffices in that case).
func TestEPRAgainstModelEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("model enumeration is slow")
	}
	r := rand.New(rand.NewSource(99))
	unsatChecked, satChecked := 0, 0
	for iter := 0; iter < 600 && (unsatChecked < 30 || satChecked < 30); iter++ {
		f := randomEPR(r, 3, nil)
		s := NewSolver()
		s.Limits = Limits{MaxInstantiations: 20000, MaxRounds: 4}
		s.Assert(f)
		res := s.CheckSat()
		switch res.Status {
		case Unsat:
			unsatChecked++
			if bruteForceEPR(f, 3) {
				t.Fatalf("iter %d: solver unsat but small model exists for %s", iter, f)
			}
		case Sat:
			if countExistentials(f) > 1 {
				continue // Herbrand size may exceed the oracle's reach
			}
			satChecked++
			if !bruteForceEPR(f, 3) {
				t.Fatalf("iter %d: solver sat but no model ≤3 for %s", iter, f)
			}
		}
	}
	if unsatChecked < 10 || satChecked < 10 {
		t.Fatalf("thin coverage: %d unsat, %d sat checks", unsatChecked, satChecked)
	}
}

// TestIncrementalMatchesFromScratch is the differential property test for
// ground-core reuse: solving base ∧ goal on a long-lived Solver (each goal
// in a pushed scope behind a selector, the core reused across goals) must
// agree with a fresh from-scratch Solver on every goal. On the first goal
// — where the two solvers see identical universes — the instantiation
// counts must also be comparable: the long-lived path may at most double
// the work (base clauses and scoped clauses dedupe separately per
// selector), never blow up asymptotically.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lim := Limits{MaxInstantiations: 20000, MaxRounds: 4}
	const iterations = 25
	const goalsPerBase = 3
	for iter := 0; iter < iterations; iter++ {
		// Conjoining p(a) pins a non-empty constant universe so neither
		// solver needs the $elem seed, keeping universes identical.
		base := fol.And(fol.Pred("p", fol.Const("a")), randomEPR(r, 2, nil))
		goals := make([]*fol.Formula, goalsPerBase)
		for i := range goals {
			goals[i] = randomEPR(r, 2, nil)
		}

		long := NewSolver()
		long.Limits = lim
		long.Assert(base)
		for gi, goal := range goals {
			fresh := NewSolver()
			fresh.Limits = lim
			fresh.Assert(base)
			fresh.Assert(goal)
			want := fresh.CheckSat()

			got := checkInScope(long, goal)
			if got.Status != want.Status {
				t.Fatalf("iter %d goal %d: long-lived=%v fresh=%v\nbase: %s\ngoal: %s",
					iter, gi, got.Status, want.Status, base, goals[gi])
			}
			if gi == 0 && want.Status != Unknown {
				// First goal: same universe, so instantiation work must be
				// comparable. fresh ≤ long-lived (shared dedup can only add
				// the selector split) and long-lived ≤ 2·fresh + ε.
				if got.Stats.Instantiations < want.Stats.Instantiations {
					t.Fatalf("iter %d: long-lived solver did less instantiation (%d) than fresh (%d)?",
						iter, got.Stats.Instantiations, want.Stats.Instantiations)
				}
				if got.Stats.Instantiations > 2*want.Stats.Instantiations+4 {
					t.Fatalf("iter %d: long-lived instantiations %d not within 2x of fresh %d",
						iter, got.Stats.Instantiations, want.Stats.Instantiations)
				}
			}
		}
	}
}
