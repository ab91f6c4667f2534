package smt

import (
	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/sat"
)

// ccInt is the solver's congruence closure over arena-interned terms:
// union-find with congruence propagation, keyed entirely by dense integer
// node IDs, so a theory check in the DPLL(T) hot loop allocates no
// strings at all.
type ccInt struct {
	arena    *fol.Arena
	parent   []int
	rank     []int
	uses     [][]int // class rep -> app nodes with an argument in the class
	sigs     map[uint64][]int
	appKey   []int64 // app node -> kind<<32|sym; -1 for leaf nodes
	appArgs  [][]int
	termMemo map[fol.TermID]int
	pending  [][2]int
}

// App-node kinds, mixed into the signature so a predicate and a function
// with the same symbol never collide.
const (
	ccKindFunc int64 = 1
	ccKindPred int64 = 2
)

func newCCInt(arena *fol.Arena) *ccInt {
	return &ccInt{
		arena:    arena,
		sigs:     map[uint64][]int{},
		termMemo: map[fol.TermID]int{},
	}
}

func (cc *ccInt) newNode(key int64, args []int) int {
	n := len(cc.parent)
	cc.parent = append(cc.parent, n)
	cc.rank = append(cc.rank, 0)
	cc.uses = append(cc.uses, nil)
	cc.appKey = append(cc.appKey, key)
	cc.appArgs = append(cc.appArgs, args)
	return n
}

// newLeaf creates a fresh uninterpreted element (constants, $T, $F).
func (cc *ccInt) newLeaf() int { return cc.newNode(-1, nil) }

func (cc *ccInt) find(x int) int {
	for cc.parent[x] != x {
		cc.parent[x] = cc.parent[cc.parent[x]] // path halving
		x = cc.parent[x]
	}
	return x
}

func (cc *ccInt) sigHash(app int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(cc.appKey[app]))
	for _, a := range cc.appArgs[app] {
		mix(uint64(cc.find(a)) + 1)
	}
	return h
}

// congruent reports whether two app nodes have the same head and pairwise
// congruent arguments.
func (cc *ccInt) congruent(a, b int) bool {
	if cc.appKey[a] != cc.appKey[b] || len(cc.appArgs[a]) != len(cc.appArgs[b]) {
		return false
	}
	for i := range cc.appArgs[a] {
		if cc.find(cc.appArgs[a][i]) != cc.find(cc.appArgs[b][i]) {
			return false
		}
	}
	return true
}

// app interns an application node, returning an existing congruent node
// when one is present in the signature table.
func (cc *ccInt) app(kind int64, sym fol.Sym, args []int) int {
	n := cc.newNode(kind<<32|int64(sym), args)
	h := cc.sigHash(n)
	for _, cand := range cc.sigs[h] {
		if cc.congruent(n, cand) {
			// Alias the fresh node to the existing congruence class so the
			// caller's handle follows it.
			cc.parent[n] = cc.find(cand)
			return n
		}
	}
	cc.sigs[h] = append(cc.sigs[h], n)
	for _, a := range args {
		r := cc.find(a)
		cc.uses[r] = append(cc.uses[r], n)
	}
	return n
}

// nodeOfTerm interns a ground arena term (memoized per TermID).
func (cc *ccInt) nodeOfTerm(id fol.TermID) int {
	if n, ok := cc.termMemo[id]; ok {
		return n
	}
	var n int
	if cc.arena.TermKindOf(id) == fol.TermApp {
		args := cc.arena.TermArgs(id)
		as := make([]int, len(args))
		for i, a := range args {
			as[i] = cc.nodeOfTerm(a)
		}
		n = cc.app(ccKindFunc, cc.arena.TermSym(id), as)
	} else {
		n = cc.newLeaf()
	}
	cc.termMemo[id] = n
	return n
}

// merge unions two classes and propagates congruences to fixpoint.
func (cc *ccInt) merge(a, b int) {
	cc.pending = append(cc.pending, [2]int{a, b})
	for len(cc.pending) > 0 {
		p := cc.pending[len(cc.pending)-1]
		cc.pending = cc.pending[:len(cc.pending)-1]
		ra, rb := cc.find(p[0]), cc.find(p[1])
		if ra == rb {
			continue
		}
		if cc.rank[ra] < cc.rank[rb] {
			ra, rb = rb, ra
		}
		cc.parent[rb] = ra
		if cc.rank[ra] == cc.rank[rb] {
			cc.rank[ra]++
		}
		// Re-key the absorbed class's parent applications; congruent pairs
		// surface as further merges.
		moved := cc.uses[rb]
		cc.uses[rb] = nil
		for _, app := range moved {
			h := cc.sigHash(app)
			matched := false
			for _, cand := range cc.sigs[h] {
				if cand != app && cc.find(cand) != cc.find(app) && cc.congruent(app, cand) {
					cc.pending = append(cc.pending, [2]int{app, cand})
					matched = true
					break
				}
			}
			if !matched {
				cc.sigs[h] = append(cc.sigs[h], app)
			}
			cc.uses[cc.find(app)] = append(cc.uses[cc.find(app)], app)
		}
	}
}

func (cc *ccInt) equal(a, b int) bool { return cc.find(a) == cc.find(b) }

// theoryConflict checks the current SAT model for EUF consistency over the
// interned atoms. It returns a blocking clause on conflict, nil when the
// model is theory-consistent.
//
// Without an equality atom the closure never merges two terms, so two
// predicate applications are congruent only when they are the same
// hash-consed atom, which has one SAT variable and so one value: no model
// can conflict, and the check returns at once. The count is read on every
// call, because a later assertion or assumption may bring the first
// equality.
func (g *groundCore) theoryConflict() []sat.Lit {
	if g.eqVars == 0 {
		return nil
	}
	return g.closureConflict()
}

// closureConflict builds the congruence closure of the model's atoms and
// reports a conflict as a blocking clause. The explanation is naive: the
// entire theory-relevant assignment.
func (g *groundCore) closureConflict() []sat.Lit {
	cc := newCCInt(g.arena)
	trueN := cc.newLeaf()
	falseN := cc.newLeaf()
	type diseq struct{ a, b int }
	var diseqs []diseq
	var involved []sat.Lit

	for v := 1; v <= g.nextVar; v++ {
		a := g.varAtom[v]
		if a < 0 {
			continue // selector variable, no theory content
		}
		args := g.arena.AtomArgs(a)
		if !g.arena.AtomEq(a) && len(args) == 0 {
			continue // purely propositional
		}
		val := g.core.Value(v)
		lit := sat.Lit(v)
		if !val {
			lit = lit.Neg()
		}
		if g.arena.AtomEq(a) {
			x := cc.nodeOfTerm(args[0])
			y := cc.nodeOfTerm(args[1])
			if val {
				cc.merge(x, y)
			} else {
				diseqs = append(diseqs, diseq{x, y})
			}
			involved = append(involved, lit)
			continue
		}
		nodes := make([]int, len(args))
		for i, t := range args {
			nodes[i] = cc.nodeOfTerm(t)
		}
		app := cc.app(ccKindPred, g.arena.AtomPred(a), nodes)
		if val {
			cc.merge(app, trueN)
		} else {
			cc.merge(app, falseN)
		}
		involved = append(involved, lit)
	}

	conflict := cc.equal(trueN, falseN)
	if !conflict {
		for _, d := range diseqs {
			if cc.equal(d.a, d.b) {
				conflict = true
				break
			}
		}
	}
	if !conflict {
		return nil
	}
	block := make([]sat.Lit, len(involved))
	for i, l := range involved {
		block[i] = l.Neg()
	}
	return block
}
