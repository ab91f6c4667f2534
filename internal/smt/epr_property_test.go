package smt

import (
	"fmt"
	"math/rand"
	"strings"
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
// scope tracks quantified variables. A third of its leaves are equalities.
func randomEPR(r *rand.Rand, depth int, scope []string) *fol.Formula {
	return randomSentence(r, depth, scope, eprLeaf, true)
}

// leafFunc draws an atom over terms drawn by term.
type leafFunc func(r *rand.Rand, term func() fol.Term) *fol.Formula

// eprLeaf draws p(t), r(t, u) or t = u.
func eprLeaf(r *rand.Rand, term func() fol.Term) *fol.Formula {
	switch r.Intn(3) {
	case 0:
		return fol.Pred("p", term())
	case 1:
		return fol.Pred("r", term(), term())
	default:
		return fol.Eq(term(), term())
	}
}

// eqFreeLeaf draws p(t) or r(t, u).
func eqFreeLeaf(r *rand.Rand, term func() fol.Term) *fol.Formula {
	if r.Intn(2) == 0 {
		return fol.Pred("p", term())
	}
	return fol.Pred("r", term(), term())
}

// randomSentence builds a random formula over the constants a and b with
// leaves from leaf; quantifiers selects whether it nests quantifiers.
func randomSentence(r *rand.Rand, depth int, scope []string, leaf leafFunc, quantifiers bool) *fol.Formula {
	term := func() fol.Term {
		if len(scope) > 0 && r.Intn(2) == 0 {
			return fol.Var(scope[r.Intn(len(scope))])
		}
		return fol.Const([]string{"a", "b"}[r.Intn(2)])
	}
	if depth <= 0 {
		return leaf(r, term)
	}
	sub := func() *fol.Formula { return randomSentence(r, depth-1, scope, leaf, quantifiers) }
	ops := 4
	if quantifiers {
		ops = 6
	}
	switch r.Intn(ops) {
	case 0:
		return fol.Not(sub())
	case 1:
		return fol.And(sub(), sub())
	case 2:
		return fol.Or(sub(), sub())
	case 3:
		return fol.Implies(sub(), sub())
	case 4:
		v := "x" + string(rune('0'+len(scope)))
		return fol.Forall(v, randomSentence(r, depth-1, append(scope, v), leaf, quantifiers))
	default:
		v := "y" + string(rune('0'+len(scope)))
		return fol.Exists(v, randomSentence(r, depth-1, append(scope, v), leaf, quantifiers))
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
				// Interpret constants by substituting their domain
				// elements into the formula.
				g := substConst(f, "a", domain[aIdx])
				g = substConst(g, "b", domain[bIdx])
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
// fragment, under the default strategy and under FullGrounding, on random
// sentences with equality and on equality-free ones (the default
// strategy's skip rule needs a problem without equality):
//
//  1. solver Unsat ⇒ the oracle finds no model at any size ≤ 3 (a small
//     model would refute the Unsat immediately);
//  2. solver Sat with ≤1 existential ⇒ the oracle finds a model at size
//     ≤ 3 (Herbrand universe {a,b,sk1} suffices in that case).
func TestEPRAgainstModelEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("model enumeration is slow")
	}
	for _, gen := range []struct {
		name string
		seed int64
		leaf leafFunc
	}{
		{"with equality", 99, eprLeaf},
		{"equality-free", 101, eqFreeLeaf},
	} {
		t.Run(gen.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(gen.seed))
			unsatChecked, satChecked := 0, 0
			for iter := 0; iter < 600 && (unsatChecked < 30 || satChecked < 30); iter++ {
				f := randomSentence(r, 3, nil, gen.leaf, true)
				oracle := -1 // unknown until the brute force runs
				hasModel := func() bool {
					if oracle < 0 {
						oracle = 0
						if bruteForceEPR(f, 3) {
							oracle = 1
						}
					}
					return oracle == 1
				}
				unsat, sat := false, false
				for _, strategy := range []InstStrategy{RelevantGrounding, FullGrounding} {
					s := NewSolver()
					s.Limits = Limits{MaxInstantiations: 20000, MaxRounds: 4}
					s.Strategy = strategy
					s.Assert(f)
					switch res := s.CheckSat(); res.Status {
					case Unsat:
						unsat = true
						if hasModel() {
							t.Fatalf("iter %d: %s solver unsat but small model exists for %s", iter, strategy, f)
						}
					case Sat:
						if countExistentials(f) > 1 {
							continue // Herbrand size may exceed the oracle's reach
						}
						sat = true
						if !hasModel() {
							t.Fatalf("iter %d: %s solver sat but no model ≤3 for %s", iter, strategy, f)
						}
					}
				}
				if unsat {
					unsatChecked++
				}
				if sat {
					satChecked++
				}
			}
			if unsatChecked < 10 || satChecked < 10 {
				t.Fatalf("thin coverage: %d unsat, %d sat checks", unsatChecked, satChecked)
			}
		})
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

// Two-sort scripts. The solver has one domain, so a script declaring two
// sorts must be refused rather than answered as if its sorts were one. The
// formulas below are monadic with equality: sort A holds the constant a,
// sort B holds b1 and b2, p is over A and q over B.

// sortedTerm is a constant or a bound variable of sort 'A' or 'B'.
type sortedTerm struct {
	name  string
	sort  byte
	bound bool
}

// sortedFormula is a formula over p, q and equality. op is "p", "q", "=",
// "not", "and", "or", "forall" or "exists".
type sortedFormula struct {
	op   string
	args []sortedTerm // p, q, = ; the bound variable of a quantifier
	kids []*sortedFormula
}

// randomSorted builds a conjunction of two to four clauses. Each clause
// is about one sort: a disjunction of one or two literals, mostly
// equalities, under up to two quantified variables of that sort. That is
// the shape in which a statement about one sort (all elements of A are
// equal) wrongly constrains the other when the sorts are merged.
func randomSorted(r *rand.Rand) *sortedFormula {
	and := &sortedFormula{op: "and"}
	for c := 2 + r.Intn(3); c > 0; c-- {
		sort := "AB"[r.Intn(2)]
		cands := []sortedTerm{{name: "a", sort: 'A'}}
		if sort == 'B' {
			cands = []sortedTerm{{name: "b1", sort: 'B'}, {name: "b2", sort: 'B'}}
		}
		var vars []sortedTerm
		for i := r.Intn(3); i > 0; i-- {
			v := sortedTerm{name: fmt.Sprintf("v%d", len(vars)), sort: sort, bound: true}
			vars = append(vars, v)
			cands = append(cands, v, v) // prefer variables
		}
		term := func() sortedTerm { return cands[r.Intn(len(cands))] }
		body := &sortedFormula{op: "or"}
		for l := 1 + r.Intn(2); l > 0; l-- {
			atom := &sortedFormula{op: "=", args: []sortedTerm{term(), term()}}
			if r.Intn(4) == 0 {
				atom = &sortedFormula{op: string("pq"[sort-'A']), args: []sortedTerm{term()}}
			}
			if r.Intn(2) == 0 {
				atom = &sortedFormula{op: "not", kids: []*sortedFormula{atom}}
			}
			body.kids = append(body.kids, atom)
		}
		f := body
		quant := []string{"forall", "forall", "forall", "exists"}[r.Intn(4)]
		for i := len(vars) - 1; i >= 0; i-- {
			f = &sortedFormula{op: quant, args: []sortedTerm{vars[i]}, kids: []*sortedFormula{f}}
		}
		and.kids = append(and.kids, f)
	}
	return and
}

// sortedScript renders the formula as an SMT-LIB script with its two
// sorts, or with both merged into one sort U.
func sortedScript(f *sortedFormula, merged bool) string {
	sortName := func(s byte) string {
		if merged {
			return "U"
		}
		return string(s)
	}
	var b strings.Builder
	if merged {
		b.WriteString("(declare-sort U 0)\n")
	} else {
		b.WriteString("(declare-sort A 0) (declare-sort B 0)\n")
	}
	fmt.Fprintf(&b, "(declare-const a %s) (declare-const b1 %s) (declare-const b2 %s)\n", sortName('A'), sortName('B'), sortName('B'))
	fmt.Fprintf(&b, "(declare-fun p (%s) Bool) (declare-fun q (%s) Bool)\n", sortName('A'), sortName('B'))
	var render func(f *sortedFormula)
	render = func(f *sortedFormula) {
		switch f.op {
		case "forall", "exists":
			fmt.Fprintf(&b, "(%s ((%s %s)) ", f.op, f.args[0].name, sortName(f.args[0].sort))
		default:
			b.WriteString("(" + f.op)
			for _, t := range f.args {
				b.WriteString(" " + t.name)
			}
		}
		for _, k := range f.kids {
			b.WriteByte(' ')
			render(k)
		}
		b.WriteByte(')')
	}
	b.WriteString("(assert ")
	render(f)
	b.WriteString(")\n(check-sat)\n")
	return b.String()
}

// sortedModel interprets the formula: nA and nB elements, constants as
// element indices, p and q as bit masks. A merged model has nA == nB and
// one shared set of elements.
type sortedModel struct {
	nA, nB    int
	a, b1, b2 int
	p, q      int
}

func (m *sortedModel) eval(f *sortedFormula, env map[string]int) bool {
	val := func(t sortedTerm) int {
		switch {
		case t.bound:
			return env[t.name]
		case t.name == "a":
			return m.a
		case t.name == "b1":
			return m.b1
		}
		return m.b2
	}
	switch f.op {
	case "p":
		return m.p&(1<<val(f.args[0])) != 0
	case "q":
		return m.q&(1<<val(f.args[0])) != 0
	case "=":
		return val(f.args[0]) == val(f.args[1])
	case "not":
		return !m.eval(f.kids[0], env)
	case "and", "or":
		for _, k := range f.kids {
			if m.eval(k, env) != (f.op == "and") {
				return f.op == "or"
			}
		}
		return f.op == "and"
	}
	v := f.args[0]
	n := m.nA
	if v.sort == 'B' {
		n = m.nB
	}
	saved, had := env[v.name]
	defer func() {
		if had {
			env[v.name] = saved
		} else {
			delete(env, v.name)
		}
	}()
	for e := 0; e < n; e++ {
		env[v.name] = e
		if m.eval(f.kids[0], env) != (f.op == "forall") {
			return f.op == "exists"
		}
	}
	return f.op == "forall"
}

// bruteForceSorted looks for a model with at most maxA elements of A and
// maxB of B; merged models have one domain of at most maxB elements.
func bruteForceSorted(f *sortedFormula, maxA, maxB int, merged bool) bool {
	for nA := 1; nA <= maxA; nA++ {
		for nB := 1; nB <= maxB; nB++ {
			if merged && nA != nB {
				continue
			}
			m := sortedModel{nA: nA, nB: nB}
			for m.a = 0; m.a < nA; m.a++ {
				for m.b1 = 0; m.b1 < nB; m.b1++ {
					for m.b2 = 0; m.b2 < nB; m.b2++ {
						for m.p = 0; m.p < 1<<nA; m.p++ {
							for m.q = 0; m.q < 1<<nB; m.q++ {
								if m.eval(f, map[string]int{}) {
									return true
								}
							}
						}
					}
				}
			}
		}
	}
	return false
}

// sortedExistentials counts the existential binders. randomSorted puts
// every quantifier under a conjunction only, so each adds at most one
// element to a smallest model.
func sortedExistentials(f *sortedFormula) int {
	n := 0
	if f.op == "exists" {
		n++
	}
	for _, k := range f.kids {
		n += sortedExistentials(k)
	}
	return n
}

// TestTwoSortScriptsRefusedOrAnsweredRight is the script-level sort
// property: every random two-sort script is either refused or answered as
// a brute-force search over two-sorted models answers. The same formulas
// with their sorts merged into one are never refused, and are answered as
// the one-domain search answers, so the refusal is no wider than it must
// be.
func TestTwoSortScriptsRefusedOrAnsweredRight(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	// The theory-lemma cap keeps the equality-heavy scripts fast; a check
	// it stops is unknown and skipped.
	lim := Limits{MaxInstantiations: 2000, MaxRounds: 2, MaxTheoryLemmas: 20}
	refused, mergedChecked := 0, 0
	for iter := 0; iter < 100; iter++ {
		f := randomSorted(r)
		existentials := sortedExistentials(f)
		for _, merged := range []bool{false, true} {
			src := sortedScript(f, merged)
			results, err := RunScript(src, lim)
			if err != nil {
				if merged {
					t.Fatalf("iter %d: one-sort script refused: %v\n%s", iter, err, src)
				}
				refused++
				continue
			}
			// A has a (and one witness), B has b1 and b2 (and one
			// witness); the merged domain holds all three constants.
			maxA, maxB := 2, 3
			if merged {
				maxA = 3
			}
			switch results[0].Status {
			case Unsat:
				if bruteForceSorted(f, maxA, maxB, merged) {
					t.Fatalf("iter %d: unsat, but a model exists\n%s", iter, src)
				}
			case Sat:
				if (existentials == 0 || (existentials == 1 && !merged)) && !bruteForceSorted(f, maxA, maxB, merged) {
					t.Fatalf("iter %d: sat, but no small model exists\n%s", iter, src)
				}
			}
			if merged {
				mergedChecked++
			}
		}
	}
	t.Logf("%d two-sort scripts refused, %d merged scripts checked", refused, mergedChecked)
	if refused == 0 || mergedChecked < 60 {
		t.Fatalf("thin coverage: %d two-sort scripts refused, %d merged scripts checked", refused, mergedChecked)
	}
}
