package smt

import (
	"math/rand"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/sat"
)

// The EUF brute-force oracle: a ground conjunction over the fixed term set
// {a, b, c, f(a), f(b)} is satisfiable iff some congruence-closed partition
// of the terms satisfies every literal with a consistent per-class
// predicate assignment.

var eufTerms = []fol.Term{
	fol.Const("a"),
	fol.Const("b"),
	fol.Const("c"),
	fol.App("f", fol.Const("a")),
	fol.App("f", fol.Const("b")),
}

// fIndex maps term index -> index of f(term) within eufTerms, or -1.
var fIndex = []int{3, 4, -1, -1, -1}

// eufLiteral is one literal of the random conjunction.
type eufLiteral struct {
	// kind 0: s=t; kind 1: s≠t; kind 2: p(s); kind 3: ¬p(s).
	kind int
	s, t int
}

func (l eufLiteral) formula() *fol.Formula {
	switch l.kind {
	case 0:
		return fol.Eq(eufTerms[l.s], eufTerms[l.t])
	case 1:
		return fol.Not(fol.Eq(eufTerms[l.s], eufTerms[l.t]))
	case 2:
		return fol.Pred("p", eufTerms[l.s])
	default:
		return fol.Not(fol.Pred("p", eufTerms[l.s]))
	}
}

// partitions enumerates all set partitions of n elements as assignment
// vectors (element -> class id in canonical form).
func partitions(n int) [][]int {
	var out [][]int
	var rec func(assign []int, maxClass int)
	rec = func(assign []int, maxClass int) {
		if len(assign) == n {
			cp := make([]int, n)
			copy(cp, assign)
			out = append(out, cp)
			return
		}
		for c := 0; c <= maxClass+1; c++ {
			next := maxClass
			if c > maxClass {
				next = c
			}
			rec(append(assign, c), next)
		}
	}
	rec(make([]int, 0, n), -1)
	return out
}

// bruteForceEUF reports satisfiability of the conjunction by enumeration.
func bruteForceEUF(lits []eufLiteral) bool {
	for _, part := range partitions(len(eufTerms)) {
		// Congruence: a~b implies f(a)~f(b) when both are in the set.
		congruent := true
		for i := range eufTerms {
			for j := range eufTerms {
				if part[i] == part[j] && fIndex[i] >= 0 && fIndex[j] >= 0 &&
					part[fIndex[i]] != part[fIndex[j]] {
					congruent = false
				}
			}
		}
		if !congruent {
			continue
		}
		ok := true
		// Predicate assignment per class: -1 unknown, 0 false, 1 true.
		pVal := map[int]int{}
		for _, l := range lits {
			switch l.kind {
			case 0:
				if part[l.s] != part[l.t] {
					ok = false
				}
			case 1:
				if part[l.s] == part[l.t] {
					ok = false
				}
			case 2:
				if v, seen := pVal[part[l.s]]; seen && v == 0 {
					ok = false
				} else {
					pVal[part[l.s]] = 1
				}
			case 3:
				if v, seen := pVal[part[l.s]]; seen && v == 1 {
					ok = false
				} else {
					pVal[part[l.s]] = 0
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestEUFAgainstBruteForce validates the DPLL(T) solver against the
// partition oracle on random ground EUF conjunctions.
func TestEUFAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(7)
		lits := make([]eufLiteral, n)
		var conj []*fol.Formula
		for i := range lits {
			l := eufLiteral{kind: r.Intn(4), s: r.Intn(len(eufTerms)), t: r.Intn(len(eufTerms))}
			lits[i] = l
			conj = append(conj, l.formula())
		}
		want := bruteForceEUF(lits)
		s := NewSolver()
		s.Assert(fol.And(conj...))
		res := s.CheckSat()
		got := res.Status == Sat
		if res.Status == Unknown {
			t.Fatalf("iter %d: unexpected unknown (%s) for %v", iter, res.Reason, fol.And(conj...))
		}
		if got != want {
			t.Fatalf("iter %d: solver=%v oracle=%v for %s", iter, res.Status, want, fol.And(conj...))
		}
	}
}

// TestEUFDisjunctionsAgainstBruteForce extends the oracle check to small
// CNF formulas (disjunctions of EUF literals) by distributing over the
// clauses.
func TestEUFDisjunctionsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 120; iter++ {
		nClauses := 1 + r.Intn(4)
		clauses := make([][]eufLiteral, nClauses)
		var f []*fol.Formula
		for ci := range clauses {
			width := 1 + r.Intn(2)
			var disj []*fol.Formula
			for k := 0; k < width; k++ {
				l := eufLiteral{kind: r.Intn(4), s: r.Intn(len(eufTerms)), t: r.Intn(len(eufTerms))}
				clauses[ci] = append(clauses[ci], l)
				disj = append(disj, l.formula())
			}
			f = append(f, fol.Or(disj...))
		}
		// Oracle: satisfiable iff some literal selection (one per clause)
		// is EUF-satisfiable.
		want := false
		var pick func(ci int, chosen []eufLiteral)
		found := false
		pick = func(ci int, chosen []eufLiteral) {
			if found {
				return
			}
			if ci == nClauses {
				if bruteForceEUF(chosen) {
					found = true
				}
				return
			}
			for _, l := range clauses[ci] {
				pick(ci+1, append(chosen, l))
			}
		}
		pick(0, nil)
		want = found

		s := NewSolver()
		s.Assert(fol.And(f...))
		res := s.CheckSat()
		if res.Status == Unknown {
			t.Fatalf("iter %d: unknown (%s)", iter, res.Reason)
		}
		if (res.Status == Sat) != want {
			t.Fatalf("iter %d: solver=%v oracle=%v for %s", iter, res.Status, want, fol.And(f...))
		}
	}
}

// randomGroundClauses builds a random ground clause set over the
// predicates p/1 and r/2 and the terms a, b, c and, when withFuncs is set,
// f(a), f(b) and f(f(a)). It contains no equality.
func randomGroundClauses(r *rand.Rand, withFuncs bool) []*fol.Formula {
	terms := []fol.Term{fol.Const("a"), fol.Const("b"), fol.Const("c")}
	if withFuncs {
		fa := fol.App("f", fol.Const("a"))
		terms = append(terms, fa, fol.App("f", fol.Const("b")), fol.App("f", fa))
	}
	term := func() fol.Term { return terms[r.Intn(len(terms))] }
	var out []*fol.Formula
	for i := 1 + r.Intn(8); i > 0; i-- {
		var disj []*fol.Formula
		for k := 1 + r.Intn(3); k > 0; k-- {
			var atom *fol.Formula
			if r.Intn(2) == 0 {
				atom = fol.Pred("p", term())
			} else {
				atom = fol.Pred("r", term(), term())
			}
			if r.Intn(2) == 0 {
				atom = fol.Not(atom)
			}
			disj = append(disj, atom)
		}
		out = append(out, fol.Or(disj...))
	}
	return out
}

// closureConflicts feeds the clauses to a fresh ground core, solves it
// under random assumptions over its atoms and counts the SAT models on
// which the full congruence closure finds a conflict.
func closureConflicts(t *testing.T, r *rand.Rand, clauses []*fol.Formula) int {
	t.Helper()
	g := newGroundCore(FullGrounding)
	for _, c := range clauses {
		if err := g.addFormula(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	conflicts := 0
	for round := 0; round < 8; round++ {
		var assume []sat.Lit
		for v := 1; v <= g.nextVar; v++ {
			switch r.Intn(3) {
			case 0:
				assume = append(assume, sat.Lit(v))
			case 1:
				assume = append(assume, sat.Lit(v).Neg())
			}
		}
		if g.core.Solve(assume...) != sat.Sat {
			continue
		}
		if g.closureConflict() != nil {
			conflicts++
		}
	}
	return conflicts
}

// TestEqualityFreeModelsNeverConflict is the property behind
// theoryConflict's early return: on ground problems without an equality,
// with or without function terms, the full congruence closure finds no
// conflict in any model the SAT core returns. The control run adds one
// equality atom and must find conflicts, so the property is not vacuous.
func TestEqualityFreeModelsNeverConflict(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	control := 0
	for iter := 0; iter < 300; iter++ {
		clauses := randomGroundClauses(r, iter%2 == 1)
		if n := closureConflicts(t, r, clauses); n != 0 {
			t.Fatalf("iter %d: %d equality-free models conflict: %v", iter, n, clauses)
		}
		eq := fol.Eq(fol.Const("a"), fol.Const("b"))
		control += closureConflicts(t, r, append(clauses, eq))
	}
	if control == 0 {
		t.Fatal("control: no model conflicted once a = b was asserted")
	}
	t.Logf("control: %d models conflicted once a = b was asserted", control)
}
