package smt

import (
	"sort"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// RelevantGrounding's skip rule: which literals occur where, and which
// instances of a quantified clause have a literal whose opposite occurs
// nowhere live (see the strategy's comment in triggers.go). The rule is
// sound only without function symbols and equality, so every term here
// is a constant or a variable.

// occBit is the occ bit of a polarity.
func occBit(neg bool) uint8 {
	if neg {
		return 2
	}
	return 1
}

// noteGround records the literals of an asserted ground clause over
// non-nullary predicates as occurrences, growing occGen when one is new.
// Occurrences are never removed: a retired scope's clauses are satisfied
// by its selector, so counting them only skips less.
func (g *groundCore) noteGround(c fol.IClause) {
	for _, l := range c {
		a := l.Atom()
		if g.arena.AtomEq(a) || len(g.arena.AtomArgs(a)) == 0 {
			continue
		}
		for len(g.occ) <= int(a) {
			g.occ = append(g.occ, 0)
		}
		bit := occBit(l.Neg())
		if g.occ[a]&bit != 0 {
			continue
		}
		if g.occ[a] == 0 {
			pred := g.arena.AtomPred(a)
			g.occIndex[pred] = append(g.occIndex[pred], a)
		}
		g.occ[a] |= bit
		g.occGen++
	}
}

// liveQOcc returns the non-nullary literals of live quantified clauses
// by predicate, building the index after g.quant changed.
func (g *groundCore) liveQOcc() map[fol.Sym][]fol.ILit {
	if g.qOcc == nil {
		g.qOcc = map[fol.Sym][]fol.ILit{}
		for i := range g.quant {
			if g.quant[i].dead {
				continue
			}
			for _, l := range g.quant[i].lits {
				a := l.Atom()
				if len(g.arena.AtomArgs(a)) > 0 {
					pred := g.arena.AtomPred(a)
					g.qOcc[pred] = append(g.qOcc[pred], l)
				}
			}
		}
	}
	return g.qOcc
}

// unify unifies the argument lists x and y of two function-free atoms of
// one predicate, the variables of y renamed apart from those of x. It
// reports whether they unify and, when bind is non-nil, writes to bind[i]
// the constant that position i of x is bound to, or -1 when it stays a
// variable.
func (g *groundCore) unify(x, y []fol.TermID, bind []fol.TermID) bool {
	n := len(x)
	if len(y) != n {
		return false
	}
	// Union-find over the 2n argument positions, x's first.
	parent, val := g.ufParent[:0], g.ufVal[:0]
	for i := 0; i < 2*n; i++ {
		parent = append(parent, i)
		val = append(val, -1)
	}
	g.ufParent, g.ufVal = parent, val
	term := func(i int) fol.TermID {
		if i < n {
			return x[i]
		}
		return y[i-n]
	}
	find := func(i int) int {
		for parent[i] != i {
			i = parent[i]
		}
		return i
	}
	isVar := func(t fol.TermID) bool { return g.arena.TermKindOf(t) == fol.TermVar }
	for i := 0; i < n; i++ {
		parent[find(i)] = find(n + i)
		for j := 0; j < i; j++ {
			if x[j] == x[i] && isVar(x[i]) {
				parent[find(j)] = find(i)
			}
			if y[j] == y[i] && isVar(y[i]) {
				parent[find(n+j)] = find(n + i)
			}
		}
	}
	for i := 0; i < 2*n; i++ {
		if t := term(i); !isVar(t) {
			r := find(i)
			if val[r] >= 0 && val[r] != t {
				return false
			}
			val[r] = t
		}
	}
	for i := range bind {
		bind[i] = val[find(i)]
	}
	return true
}

// varIndex is the position of variable v in vars.
func varIndex(vars []fol.Sym, v fol.Sym) int {
	for i, s := range vars {
		if s == v {
			return i
		}
	}
	return -1
}

// relevantCands lists, for each variable of qc, the sorted universe
// indices below uniLen that an opposite occurrence of every literal
// holding the variable can bind it to. It returns nil when a literal over
// a non-nullary atom has no opposite occurrence at all, so that every
// instance of the clause is skipped.
func (g *groundCore) relevantCands(qc *qClause, uniLen int) [][]int {
	k := len(qc.vars)
	cands := make([][]int, k)
	constrained := make([]bool, k)
	free := make([]bool, k)
	found := make([][]int, k)
	var held []fol.Sym
	for _, l := range qc.lits {
		a := l.Atom()
		args := g.arena.AtomArgs(a)
		if len(args) == 0 {
			continue
		}
		for vi := range free {
			free[vi], found[vi] = false, found[vi][:0]
		}
		bind := make([]fol.TermID, len(args))
		unifies := false
		visit := func(opp fol.AtomID) {
			if !g.unify(args, g.arena.AtomArgs(opp), bind) {
				return
			}
			unifies = true
			for i, t := range args {
				if g.arena.TermKindOf(t) != fol.TermVar {
					continue
				}
				vi := varIndex(qc.vars, g.arena.TermSym(t))
				if bind[i] < 0 {
					free[vi] = true
				} else if u := int(g.uniPos[bind[i]]) - 1; u >= 0 && u < uniLen {
					found[vi] = append(found[vi], u)
				}
			}
		}
		pred, bit := g.arena.AtomPred(a), occBit(!l.Neg())
		for _, opp := range g.occIndex[pred] {
			if g.occ[opp]&bit != 0 {
				visit(opp)
			}
		}
		for _, o := range g.liveQOcc()[pred] {
			if o.Neg() != l.Neg() {
				visit(o.Atom())
			}
		}
		if !unifies {
			return nil
		}
		held = g.arena.AtomVars(a, held[:0])
		for _, v := range held {
			vi := varIndex(qc.vars, v)
			if free[vi] {
				continue
			}
			vals := sortedSet(found[vi])
			if constrained[vi] {
				vals = intersect(cands[vi], vals)
			}
			cands[vi], constrained[vi] = vals, true
		}
	}
	for vi := range cands {
		if !constrained[vi] {
			cands[vi] = g.universeIdx(uniLen)
		}
	}
	return cands
}

// sortedSet returns a sorted copy of xs without duplicates.
func sortedSet(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	n := 0
	for i, x := range out {
		if i == 0 || x != out[n-1] {
			out[n] = x
			n++
		}
	}
	return out[:n]
}

// intersect returns the common elements of two sorted sets.
func intersect(a, b []int) []int {
	var out []int
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// universeIdx returns 0, 1, ..., uniLen-1, shared and read-only.
func (g *groundCore) universeIdx(uniLen int) []int {
	for len(g.allIdx) < uniLen {
		g.allIdx = append(g.allIdx, len(g.allIdx))
	}
	return g.allIdx[:uniLen]
}

// hasPureLiteral reports whether the instance of qc at the tuple of
// universe indices has a literal over a non-nullary atom whose opposite
// polarity occurs nowhere live: neither in an asserted ground clause nor as
// an instance of a literal of a live quantified clause. Nothing is
// interned, so a skipped instance leaves no trace.
func (g *groundCore) hasPureLiteral(qc *qClause, tuple []int) bool {
	for _, l := range qc.lits {
		a := l.Atom()
		pattern := g.arena.AtomArgs(a)
		if len(pattern) == 0 {
			continue
		}
		args := g.argBuf[:0]
		for _, t := range pattern {
			if g.arena.TermKindOf(t) == fol.TermVar {
				t = g.universe[tuple[varIndex(qc.vars, g.arena.TermSym(t))]]
			}
			args = append(args, t)
		}
		g.argBuf = args
		opp := !l.Neg()
		pred := g.arena.AtomPred(a)
		if id, ok := g.arena.LookupPred(pred, args); ok && int(id) < len(g.occ) && g.occ[id]&occBit(opp) != 0 {
			continue
		}
		occurs := false
		for _, o := range g.liveQOcc()[pred] {
			if o.Neg() == opp && g.unify(args, g.arena.AtomArgs(o.Atom()), nil) {
				occurs = true
				break
			}
		}
		if !occurs {
			return true
		}
	}
	return false
}
