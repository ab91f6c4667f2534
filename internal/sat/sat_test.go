package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New()
	s.AddClause(1)
	if got := s.Solve(); got != Sat {
		t.Fatalf("unit clause: %v", got)
	}
	if !s.Value(1) {
		t.Error("x1 should be true")
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	s.AddClause(1)
	s.AddClause(-1)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("x ∧ ¬x: %v", got)
	}
}

func TestEmptyClause(t *testing.T) {
	s := New()
	s.AddClause()
	if got := s.Solve(); got != Unsat {
		t.Fatalf("empty clause: %v", got)
	}
}

func TestNoClauses(t *testing.T) {
	if got := New().Solve(); got != Sat {
		t.Fatalf("empty instance: %v", got)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	s.AddClause(1, -1)
	if got := s.Solve(); got != Sat {
		t.Fatalf("tautology: %v", got)
	}
}

func TestImplicationChain(t *testing.T) {
	s := New()
	// 1 -> 2 -> 3 -> 4, with 1 asserted and ¬4: unsat.
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	s.AddClause(-3, 4)
	s.AddClause(1)
	s.AddClause(-4)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("chain: %v", got)
	}
}

func TestModelSatisfiesClauses(t *testing.T) {
	s := New()
	clauses := [][]Lit{{1, 2}, {-1, 3}, {-2, -3}, {2, 3}}
	for _, c := range clauses {
		s.AddClause(c...)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("solve: %v", got)
	}
	m := s.Model()
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if m[l.Var()] == l.Sign() {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("model %v violates clause %v", m, c)
		}
	}
}

// pigeonhole(n): n+1 pigeons in n holes — classically unsat and requires
// real conflict analysis.
func pigeonhole(n int) *Solver {
	s := New()
	v := func(p, h int) Lit { return Lit(p*n + h + 1) }
	for p := 0; p <= n; p++ {
		var c []Lit
		for h := 0; h < n; h++ {
			c = append(c, v(p, h))
		}
		s.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(v(p1, h).Neg(), v(p2, h).Neg())
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := pigeonhole(n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d): %v", n, got)
		}
	}
}

func TestPigeonholeBudget(t *testing.T) {
	s := pigeonhole(8)
	s.Budget = 1000
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted PHP(8) should be Unknown, got %v (steps may be too generous)", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	s.AddClause(-1, 2) // 1 -> 2
	if got := s.Solve(1, -2); got != Unsat {
		t.Fatalf("assume 1,¬2: %v", got)
	}
	if got := s.Solve(1); got != Sat {
		t.Fatalf("assume 1: %v", got)
	}
	if !s.Value(2) {
		t.Error("model under assumption 1 must set 2")
	}
	// Solver stays reusable: no permanent effect of assumptions.
	if got := s.Solve(-2); got != Sat {
		t.Fatalf("assume ¬2 after previous calls: %v", got)
	}
	if s.Value(1) {
		t.Error("model under ¬2 must set ¬1")
	}
}

func TestGraphColoring(t *testing.T) {
	// Triangle 3-colorable, not 2-colorable.
	color := func(k int) Status {
		s := New()
		v := func(node, c int) Lit { return Lit(node*k + c + 1) }
		for node := 0; node < 3; node++ {
			var cl []Lit
			for c := 0; c < k; c++ {
				cl = append(cl, v(node, c))
			}
			s.AddClause(cl...)
			for c1 := 0; c1 < k; c1++ {
				for c2 := c1 + 1; c2 < k; c2++ {
					s.AddClause(v(node, c1).Neg(), v(node, c2).Neg())
				}
			}
		}
		edges := [][2]int{{0, 1}, {1, 2}, {0, 2}}
		for _, e := range edges {
			for c := 0; c < k; c++ {
				s.AddClause(v(e[0], c).Neg(), v(e[1], c).Neg())
			}
		}
		return s.Solve()
	}
	if color(2) != Unsat {
		t.Error("triangle should not be 2-colorable")
	}
	if color(3) != Sat {
		t.Error("triangle should be 3-colorable")
	}
}

// naive evaluates clauses by brute force over up to 20 vars.
func bruteForce(nVars int, clauses [][]Lit) Status {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, c := range clauses {
			cv := false
			for _, l := range c {
				bit := m>>(l.Var()-1)&1 == 1
				if bit == l.Sign() {
					cv = true
					break
				}
			}
			if !cv {
				ok = false
				break
			}
		}
		if ok {
			return Sat
		}
	}
	return Unsat
}

// Property: CDCL agrees with brute force on random small instances.
func TestRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		nVars := 3 + r.Intn(8)
		nClauses := 1 + r.Intn(30)
		var clauses [][]Lit
		s := New()
		for i := 0; i < nClauses; i++ {
			width := 1 + r.Intn(3)
			var c []Lit
			for j := 0; j < width; j++ {
				l := Lit(1 + r.Intn(nVars))
				if r.Intn(2) == 0 {
					l = l.Neg()
				}
				c = append(c, l)
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		want := bruteForce(nVars, clauses)
		got := s.Solve()
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v clauses=%v", iter, got, want, clauses)
		}
		if got == Sat {
			m := s.Model()
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					if m[l.Var()] == l.Sign() {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates %v", iter, c)
				}
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := pigeonhole(4)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 || st.Propagations == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
	if s.NumClauses() == 0 {
		t.Error("clause count zero")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Error("Status.String broken")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func BenchmarkPigeonhole6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := pigeonhole(6)
		if s.Solve() != Unsat {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < b.N; i++ {
		s := New()
		nVars := 60
		for c := 0; c < 250; c++ {
			var cl []Lit
			for j := 0; j < 3; j++ {
				l := Lit(1 + r.Intn(nVars))
				if r.Intn(2) == 0 {
					l = l.Neg()
				}
				cl = append(cl, l)
			}
			s.AddClause(cl...)
		}
		s.Solve()
	}
}

func ExampleSolver() {
	s := New()
	s.AddClause(1, 2) // x1 ∨ x2
	s.AddClause(-1)   // ¬x1
	fmt.Println(s.Solve(), s.Value(2))
	// Output: sat true
}

func TestReduceDBKeepsCorrectness(t *testing.T) {
	// An aggressive GC threshold forces reduceDB during a hard unsat
	// instance; the answer must not change.
	s := pigeonhole(6)
	s.MaxLearned = 50
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(6) with GC = %v", got)
	}
}

func TestReduceDBOnRandomInstances(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		nVars := 3 + r.Intn(8)
		nClauses := 1 + r.Intn(30)
		var clauses [][]Lit
		s := New()
		s.MaxLearned = 5
		for i := 0; i < nClauses; i++ {
			width := 1 + r.Intn(3)
			var c []Lit
			for j := 0; j < width; j++ {
				l := Lit(1 + r.Intn(nVars))
				if r.Intn(2) == 0 {
					l = l.Neg()
				}
				c = append(c, l)
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		want := bruteForce(nVars, clauses)
		if got := s.Solve(); got != want {
			t.Fatalf("iter %d with GC: solver=%v brute=%v", iter, got, want)
		}
	}
}

// TestIncrementalAddAfterSolve pins the incremental contract: AddClause is
// legal after Solve, learned clauses survive, and later calls see the new
// constraints.
func TestIncrementalAddAfterSolve(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	s.AddClause(-1, 3)
	if got := s.Solve(); got != Sat {
		t.Fatalf("initial: %v", got)
	}
	s.AddClause(-3) // forces ¬1 via -1∨3, hence 2
	if got := s.Solve(); got != Sat {
		t.Fatalf("after ¬3: %v", got)
	}
	if s.Value(3) || s.Value(1) || !s.Value(2) {
		t.Fatalf("model after ¬3: 1=%v 2=%v 3=%v, want ¬1 2 ¬3", s.Value(1), s.Value(2), s.Value(3))
	}
	s.AddClause(-2)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after ¬2: %v", got)
	}
	// An Unsat verdict from permanent clauses is final.
	if got := s.Solve(1); got != Unsat {
		t.Fatalf("unsat core must stay unsat under assumptions: %v", got)
	}
}

// TestIncrementalAgainstBruteForce interleaves clause additions and
// assumption-based re-solves on one long-lived solver and cross-checks every
// verdict against brute force over the clauses added so far (plus the
// assumptions as pseudo-units).
func TestIncrementalAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 120; iter++ {
		nVars := 3 + r.Intn(7)
		s := New()
		var clauses [][]Lit
		dead := false
		for step := 0; step < 6; step++ {
			for k := 1 + r.Intn(5); k > 0; k-- {
				width := 1 + r.Intn(3)
				var c []Lit
				for j := 0; j < width; j++ {
					l := Lit(1 + r.Intn(nVars))
					if r.Intn(2) == 0 {
						l = l.Neg()
					}
					c = append(c, l)
				}
				clauses = append(clauses, c)
				s.AddClause(c...)
			}
			var assume []Lit
			for j := 1 + r.Intn(2); j > 0; j-- {
				l := Lit(1 + r.Intn(nVars))
				if r.Intn(2) == 0 {
					l = l.Neg()
				}
				assume = append(assume, l)
			}
			withAssume := make([][]Lit, len(clauses), len(clauses)+len(assume))
			copy(withAssume, clauses)
			for _, l := range assume {
				withAssume = append(withAssume, []Lit{l})
			}
			want := bruteForce(nVars, withAssume)
			if dead {
				want = Unsat // permanent clauses already contradictory
			}
			got := s.Solve(assume...)
			if got != want {
				t.Fatalf("iter %d step %d: solver=%v brute=%v clauses=%v assume=%v",
					iter, step, got, want, clauses, assume)
			}
			if bruteForce(nVars, clauses) == Unsat {
				dead = true
			}
		}
	}
}
