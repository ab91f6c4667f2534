// Package sat implements a CDCL (conflict-driven clause learning) boolean
// satisfiability solver: two-watched-literal propagation over dense
// slice-indexed watch lists, first-UIP conflict analysis, VSIDS-style
// activity ordering with a binary heap, phase saving, Luby restarts,
// native incremental solving under assumptions (learned clauses are
// retained across calls), and deterministic resource budgets.
//
// It is the boolean core of the internal/smt solver, standing in for the
// SAT engines inside CVC5/Z3 that the paper uses. The solver is fully
// incremental: AddClause is legal between Solve calls, and a Solve under
// assumptions runs in place — no sub-solver is constructed, and clauses
// learned under assumptions remain valid for later calls because conflict
// analysis never resolves on assumption decisions.
package sat

import (
	"fmt"
	"sort"
)

// Lit is a literal: variables are numbered from 1; a positive Lit v asserts
// variable v, a negative Lit -v asserts its negation. 0 is invalid.
type Lit int

// Neg returns the negation of the literal.
func (l Lit) Neg() Lit { return -l }

// Var returns the literal's variable index (always positive).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// String renders the literal as in DIMACS.
func (l Lit) String() string { return fmt.Sprintf("%d", int(l)) }

// watchIdx maps a literal to its dense watch-list slot: positive literals
// of variable v at 2v, negative at 2v+1.
func watchIdx(l Lit) int {
	if l > 0 {
		return int(l) << 1
	}
	return int(-l)<<1 | 1
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	// Unknown means the resource budget was exhausted before a decision.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable under the assumptions.
	Unsat
)

// String returns "sat", "unsat" or "unknown".
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Stats reports solver effort counters.
type Stats struct {
	// Decisions counts branching decisions.
	Decisions int64
	// Propagations counts unit propagations.
	Propagations int64
	// Conflicts counts conflicts analyzed.
	Conflicts int64
	// Learned counts clauses learned.
	Learned int64
	// Restarts counts restarts performed.
	Restarts int64
	// Solves counts Solve calls (incremental re-solves included).
	Solves int64
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

// Solver is an incremental CDCL SAT solver. The zero value is ready to
// use; add variables implicitly by referencing them in AddClause. Clauses
// may be added at any point between Solve calls; learned clauses and
// variable activities persist, so repeated solves over a growing clause
// database (the DPLL(T) refinement loop, instantiation rounds, batch
// queries under assumptions) reuse all prior search effort.
type Solver struct {
	clauses  []*clause
	watches  [][]*clause // watchIdx(lit) -> clauses watching it
	units    []Lit       // unit clauses, asserted at level 0 each solve
	assign   []int8      // var -> lTrue/lFalse/lUndef
	level    []int       // var -> decision level assigned at
	reason   []*clause   // var -> implying clause
	activity []float64   // var -> VSIDS activity
	phase    []int8      // var -> saved phase
	heapPos  []int       // var -> index in heap, -1 when absent
	heap     []int       // binary max-heap of vars ordered by activity
	seen     []bool      // var -> scratch for analyze
	trail    []Lit
	trailLim []int // decision level -> trail index
	qhead    int
	varInc   float64
	stats    Stats
	unsatNow bool // empty clause added

	// Budget caps propagations+decisions counted since construction or
	// the last ResetSteps; 0 means unlimited.
	Budget int64
	steps  int64

	// MaxLearned caps retained learned clauses before garbage collection
	// removes the low-activity half; 0 selects the default (8192).
	MaxLearned int
	claInc     float64
	learnedCnt int
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, claInc: 1}
}

// ResetSteps restarts the step count Budget is measured against. A
// long-lived solver that answers many independent questions calls it once
// per question, so Budget bounds each question's work rather than the
// solver's lifetime.
func (s *Solver) ResetSteps() { s.steps = 0 }

func (s *Solver) ensureVar(v int) {
	for len(s.assign) <= v {
		nv := len(s.assign)
		s.assign = append(s.assign, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.activity = append(s.activity, 0)
		s.phase = append(s.phase, lFalse)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, nil, nil)
		s.heapPos = append(s.heapPos, -1)
		if nv > 0 {
			s.heapInsert(nv)
		}
	}
}

// --- activity heap -------------------------------------------------------

func (s *Solver) heapLess(a, b int) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heapPos[s.heap[i]] = i
	s.heapPos[s.heap[j]] = j
}

func (s *Solver) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(s.heap[i], s.heap[p]) {
			return
		}
		s.heapSwap(i, p)
		i = p
	}
}

func (s *Solver) heapDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && s.heapLess(s.heap[l], s.heap[best]) {
			best = l
		}
		if r < n && s.heapLess(s.heap[r], s.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		s.heapSwap(i, best)
		i = best
	}
}

func (s *Solver) heapInsert(v int) {
	if s.heapPos[v] >= 0 {
		return
	}
	s.heapPos[v] = len(s.heap)
	s.heap = append(s.heap, v)
	s.heapUp(s.heapPos[v])
}

func (s *Solver) heapPop() int {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heapSwap(0, last)
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

// --- clause management ---------------------------------------------------

// AddClause adds a clause (a disjunction of literals). Duplicate literals
// are removed; tautologies are ignored. Adding the empty clause makes the
// instance trivially unsatisfiable. AddClause is legal at any point
// between Solve calls; the next Solve takes the new clause into account.
func (s *Solver) AddClause(lits ...Lit) {
	norm := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if l == 0 {
			panic("sat: zero literal")
		}
		norm = append(norm, l)
		s.ensureVar(l.Var())
	}
	// Sort by variable (then sign) so duplicates and complementary pairs
	// are adjacent — insertion sort, no allocation on this hot path.
	litLess := func(a, b Lit) bool {
		va, vb := a.Var(), b.Var()
		if va != vb {
			return va < vb
		}
		return a < b
	}
	for i := 1; i < len(norm); i++ {
		for j := i; j > 0 && litLess(norm[j], norm[j-1]); j-- {
			norm[j], norm[j-1] = norm[j-1], norm[j]
		}
	}
	out := norm[:0]
	for i, l := range norm {
		if i > 0 {
			prev := out[len(out)-1]
			if prev == l {
				continue // duplicate
			}
			if prev == l.Neg() {
				return // tautology
			}
		}
		out = append(out, l)
	}
	if len(out) == 0 {
		s.unsatNow = true
		return
	}
	if len(out) == 1 {
		s.units = append(s.units, out[0])
	}
	c := &clause{lits: out}
	s.attach(c)
	s.clauses = append(s.clauses, c)
}

func (s *Solver) attach(c *clause) {
	if len(c.lits) == 1 {
		return // units handled at solve start
	}
	w0, w1 := watchIdx(c.lits[0]), watchIdx(c.lits[1])
	s.watches[w0] = append(s.watches[w0], c)
	s.watches[w1] = append(s.watches[w1], c)
}

// detach removes the clause from its watch lists.
func (s *Solver) detach(c *clause) {
	for _, w := range []Lit{c.lits[0], c.lits[1]} {
		wi := watchIdx(w)
		list := s.watches[wi]
		for i, x := range list {
			if x == c {
				list[i] = list[len(list)-1]
				s.watches[wi] = list[:len(list)-1]
				break
			}
		}
	}
}

func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() {
		return v
	}
	return -v
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assign[v] = lTrue
	} else {
		s.assign[v] = lFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.steps++
		s.stats.Propagations++
		neg := p.Neg()
		wi := watchIdx(neg)
		ws := s.watches[wi]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if conflict != nil {
				kept = append(kept, c)
				continue
			}
			// Ensure the false literal is at position 1.
			if c.lits[0] == neg {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := watchIdx(c.lits[1])
					s.watches[nw] = append(s.watches[nw], c)
					moved = true
					break
				}
			}
			if moved {
				continue // no longer watching neg
			}
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				conflict = c
			}
		}
		s.watches[wi] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e100 {
		for _, cl := range s.clauses {
			cl.act *= 1e-100
		}
		s.claInc *= 1e-100
	}
}

// reduceDB removes the low-activity half of the learned clauses, keeping
// binary clauses and clauses that are the reason for a current assignment.
func (s *Solver) reduceDB() {
	reasons := map[*clause]bool{}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nil {
			reasons[r] = true
		}
	}
	var learned []*clause
	for _, c := range s.clauses {
		if c.learned && len(c.lits) > 2 && !reasons[c] {
			learned = append(learned, c)
		}
	}
	if len(learned) < 2 {
		return
	}
	sort.Slice(learned, func(i, j int) bool { return learned[i].act < learned[j].act })
	drop := map[*clause]bool{}
	for _, c := range learned[:len(learned)/2] {
		drop[c] = true
	}
	kept := s.clauses[:0]
	for _, c := range s.clauses {
		if drop[c] {
			s.detach(c)
			s.learnedCnt--
			continue
		}
		kept = append(kept, c)
	}
	s.clauses = kept
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

// analyze performs first-UIP conflict analysis and returns the learned
// clause and the backtrack level. Assumption decisions are never resolved
// on (their reason is nil), so the learned clause is implied by the
// clause database alone and stays valid for later Solve calls.
func (s *Solver) analyze(conflict *clause) ([]Lit, int) {
	learned := []Lit{0} // placeholder for the asserting literal
	counter := 0
	var p Lit
	c := conflict
	idx := len(s.trail) - 1
	var toClear []int
	for {
		if c.learned {
			s.bumpClause(c)
		}
		for _, q := range c.lits {
			if q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				toClear = append(toClear, v)
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learned = append(learned, q)
				}
			}
		}
		// Find next literal on trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		s.seen[p.Var()] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	for _, v := range toClear {
		s.seen[v] = false
	}
	learned[0] = p.Neg()
	// Backtrack level: second-highest level in the clause.
	bt := 0
	for i := 1; i < len(learned); i++ {
		if lv := s.level[learned[i].Var()]; lv > bt {
			bt = lv
			learned[1], learned[i] = learned[i], learned[1]
		}
	}
	return learned, bt
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v]
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.heapInsert(v)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return 0
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
// It returns Unknown when the step budget is exhausted.
//
// Assumptions are handled natively: each is decided (in order) at its own
// decision level before any free decision, so the solver state — clause
// database, learned clauses, activities, saved phases — is shared across
// assumption solves and re-solves. When Sat, the model (reachable via
// Value/Model) reflects the assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.unsatNow {
		return Unsat
	}
	s.stats.Solves++
	for _, a := range assumptions {
		if a == 0 {
			panic("sat: zero assumption literal")
		}
		s.ensureVar(a.Var())
	}
	s.backtrackTo(0)
	// Replay propagation over the persistent level-0 trail so clauses
	// added since the last call are taken into account.
	s.qhead = 0
	for _, u := range s.units {
		if !s.enqueue(u, nil) {
			return Unsat
		}
	}
	if s.propagate() != nil {
		return Unsat
	}
	restartNum := int64(1)
	conflictBudget := int64(100) * luby(restartNum)
	conflictsHere := int64(0)
	for {
		if s.Budget > 0 && s.steps > s.Budget {
			s.backtrackTo(0)
			return Unknown
		}
		conflict := s.propagate()
		if conflict != nil {
			s.stats.Conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			learned, bt := s.analyze(conflict)
			s.backtrackTo(bt)
			c := &clause{lits: learned, learned: true}
			s.stats.Learned++
			if len(learned) > 1 {
				s.attach(c)
				s.clauses = append(s.clauses, c)
				s.learnedCnt++
				s.enqueue(learned[0], c)
			} else {
				// A learned unit holds unconditionally at level 0; record
				// it so later incremental solves replay it.
				s.units = append(s.units, learned[0])
				if !s.enqueue(learned[0], nil) {
					return Unsat
				}
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			// Garbage-collect learned clauses when the database grows
			// past the cap.
			maxLearned := s.MaxLearned
			if maxLearned <= 0 {
				maxLearned = 8192
			}
			if s.learnedCnt > maxLearned {
				s.reduceDB()
			}
			continue
		}
		// Restart?
		if conflictsHere >= conflictBudget {
			s.stats.Restarts++
			restartNum++
			conflictBudget = 100 * luby(restartNum)
			conflictsHere = 0
			s.backtrackTo(0)
			continue
		}
		// Decide the next pending assumption before any free decision.
		if lvl := s.decisionLevel(); lvl < len(assumptions) {
			a := assumptions[lvl]
			switch s.value(a) {
			case lTrue:
				// Already implied: open an empty level so the remaining
				// assumptions keep their positional levels.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				// The clause database refutes this assumption.
				s.backtrackTo(0)
				return Unsat
			default:
				s.stats.Decisions++
				s.steps++
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(a, nil)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return Sat
		}
		s.stats.Decisions++
		s.steps++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := Lit(v)
		if s.phase[v] == lFalse {
			l = l.Neg()
		}
		s.enqueue(l, nil)
	}
}

// Value returns the assignment of variable v in the last Sat result.
func (s *Solver) Value(v int) bool {
	if v >= len(s.assign) {
		return false
	}
	return s.assign[v] == lTrue
}

// Model returns the satisfying assignment as a map from variable to value.
// Only meaningful after Solve returned Sat.
func (s *Solver) Model() map[int]bool {
	m := make(map[int]bool, len(s.assign))
	for v := 1; v < len(s.assign); v++ {
		m[v] = s.assign[v] == lTrue
	}
	return m
}

// Stats returns effort counters accumulated so far.
func (s *Solver) Stats() Stats { return s.stats }

// NumClauses returns the number of clauses currently stored (including
// learned clauses).
func (s *Solver) NumClauses() int { return len(s.clauses) }
