package fol

// This file implements hash-consing of terms and atoms into a per-problem
// Arena with stable integer IDs, and canonical clauses over the interned
// literals. The SMT hot path — clause identity, substitution application,
// E-matching and the boolean abstraction — becomes integer-keyed: no
// String() rendering and no map[string] lookups per operation. Symbols
// (names of variables, constants, functions and predicates) are interned
// once per distinct spelling; everything after that is slice-indexed.

// Sym is an interned symbol (variable, constant, function or predicate
// name). IDs are dense and stable for the lifetime of the Arena.
type Sym int32

// TermID is an interned term. IDs are dense; a TermID is valid only for
// the Arena that produced it.
type TermID int32

// AtomID is an interned atom (predicate application or equality). IDs are
// dense; an AtomID is valid only for the Arena that produced it.
type AtomID int32

// ILit is an interned literal: the atom ID shifted left one bit, with the
// low bit set for negation. The zero value is the positive literal of
// atom 0.
type ILit int32

// MkILit builds a literal from an atom and a polarity.
func MkILit(a AtomID, neg bool) ILit {
	l := ILit(a) << 1
	if neg {
		l |= 1
	}
	return l
}

// Atom returns the literal's atom.
func (l ILit) Atom() AtomID { return AtomID(l >> 1) }

// Neg reports whether the literal is negated.
func (l ILit) Neg() bool { return l&1 == 1 }

// IClause is an interned ground-or-nonground clause: a disjunction of
// interned literals, sorted ascending for canonical identity.
type IClause []ILit

// termNode is the interned representation of one term.
type termNode struct {
	kind TermKind
	sym  Sym
	// args are argument term IDs (nil unless kind == TermApp). The slice
	// is owned by the arena and never mutated.
	args []TermID
	// ground caches whether the term contains no variables.
	ground bool
}

// atomNode is the interned representation of one atom.
type atomNode struct {
	// pred is the predicate symbol; for equality atoms it is eqSym.
	pred Sym
	eq   bool
	args []TermID
	// uninterpreted marks ambiguity-placeholder predicates.
	uninterpreted bool
	// ground caches whether every argument is ground.
	ground bool
}

// Arena hash-conses terms and atoms to dense integer IDs. The zero value
// is not ready; use NewArena. An Arena is not safe for concurrent use;
// callers that share one across goroutines must serialize access.
type Arena struct {
	syms    []string
	symIDs  map[string]Sym
	varSyms []bool // sym -> interned at least once as a variable

	terms     []termNode
	termTable map[uint64][]TermID // structural hash -> candidates

	atoms     []atomNode
	atomTable map[uint64][]AtomID
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		symIDs:    map[string]Sym{},
		termTable: map[uint64][]TermID{},
		atomTable: map[uint64][]AtomID{},
	}
}

// Sym interns a symbol name.
func (a *Arena) Sym(name string) Sym {
	if id, ok := a.symIDs[name]; ok {
		return id
	}
	id := Sym(len(a.syms))
	a.syms = append(a.syms, name)
	a.symIDs[name] = id
	a.varSyms = append(a.varSyms, false)
	return id
}

// SymName returns the spelling of an interned symbol.
func (a *Arena) SymName(s Sym) string { return a.syms[s] }

// NumTerms reports the number of distinct interned terms.
func (a *Arena) NumTerms() int { return len(a.terms) }

// NumAtoms reports the number of distinct interned atoms.
func (a *Arena) NumAtoms() int { return len(a.atoms) }

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

func (a *Arena) termHash(kind TermKind, sym Sym, args []TermID) uint64 {
	h := hashMix(fnvOffset, uint64(kind)+1)
	h = hashMix(h, uint64(sym)+1)
	for _, arg := range args {
		h = hashMix(h, uint64(arg)+1)
	}
	return h
}

func (a *Arena) internTermNode(kind TermKind, sym Sym, args []TermID) TermID {
	h := a.termHash(kind, sym, args)
	for _, cand := range a.termTable[h] {
		n := &a.terms[cand]
		if n.kind != kind || n.sym != sym || len(n.args) != len(args) {
			continue
		}
		same := true
		for i := range args {
			if n.args[i] != args[i] {
				same = false
				break
			}
		}
		if same {
			return cand
		}
	}
	ground := kind != TermVar
	var owned []TermID
	if len(args) > 0 {
		owned = make([]TermID, len(args))
		copy(owned, args)
		for _, arg := range owned {
			if !a.terms[arg].ground {
				ground = false
			}
		}
	}
	id := TermID(len(a.terms))
	a.terms = append(a.terms, termNode{kind: kind, sym: sym, args: owned, ground: ground})
	a.termTable[h] = append(a.termTable[h], id)
	if kind == TermVar {
		a.varSyms[sym] = true
	}
	return id
}

// InternVar interns a variable term by symbol.
func (a *Arena) InternVar(s Sym) TermID { return a.internTermNode(TermVar, s, nil) }

// InternConst interns a constant term by symbol.
func (a *Arena) InternConst(s Sym) TermID { return a.internTermNode(TermConst, s, nil) }

// InternApp interns a function application.
func (a *Arena) InternApp(fn Sym, args []TermID) TermID {
	return a.internTermNode(TermApp, fn, args)
}

// InternTerm interns an AST term.
func (a *Arena) InternTerm(t Term) TermID {
	switch t.Kind {
	case TermVar:
		return a.InternVar(a.Sym(t.Name))
	case TermConst:
		return a.InternConst(a.Sym(t.Name))
	default:
		var args []TermID
		if len(t.Args) > 0 {
			args = make([]TermID, len(t.Args))
			for i, arg := range t.Args {
				args[i] = a.InternTerm(arg)
			}
		}
		return a.InternApp(a.Sym(t.Name), args)
	}
}

// TermGround reports whether the interned term contains no variables.
func (a *Arena) TermGround(id TermID) bool { return a.terms[id].ground }

// TermKindOf returns the term's variant.
func (a *Arena) TermKindOf(id TermID) TermKind { return a.terms[id].kind }

// TermSym returns the term's head symbol.
func (a *Arena) TermSym(id TermID) Sym { return a.terms[id].sym }

// TermArgs returns the term's argument IDs. The slice is owned by the
// arena; callers must not mutate it.
func (a *Arena) TermArgs(id TermID) []TermID { return a.terms[id].args }

// Term reconstructs the AST form of an interned term.
func (a *Arena) Term(id TermID) Term {
	n := &a.terms[id]
	switch n.kind {
	case TermVar:
		return Var(a.syms[n.sym])
	case TermConst:
		return Const(a.syms[n.sym])
	default:
		args := make([]Term, len(n.args))
		for i, arg := range n.args {
			args[i] = a.Term(arg)
		}
		return Term{Kind: TermApp, Name: a.syms[n.sym], Args: args}
	}
}

func (a *Arena) atomHash(pred Sym, eq bool, args []TermID) uint64 {
	h := hashMix(fnvOffset, uint64(pred)+2)
	if eq {
		h = hashMix(h, 7)
	}
	for _, arg := range args {
		h = hashMix(h, uint64(arg)+1)
	}
	return h
}

// findAtom returns the interned atom with the given hash and structure.
func (a *Arena) findAtom(h uint64, pred Sym, eq bool, args []TermID) (AtomID, bool) {
	for _, cand := range a.atomTable[h] {
		n := &a.atoms[cand]
		if n.pred != pred || n.eq != eq || len(n.args) != len(args) {
			continue
		}
		same := true
		for i := range args {
			if n.args[i] != args[i] {
				same = false
				break
			}
		}
		if same {
			return cand, true
		}
	}
	return 0, false
}

func (a *Arena) internAtomNode(pred Sym, eq, uninterpreted bool, args []TermID) AtomID {
	h := a.atomHash(pred, eq, args)
	if id, ok := a.findAtom(h, pred, eq, args); ok {
		return id
	}
	ground := true
	var owned []TermID
	if len(args) > 0 {
		owned = make([]TermID, len(args))
		copy(owned, args)
		for _, arg := range owned {
			if !a.terms[arg].ground {
				ground = false
			}
		}
	}
	id := AtomID(len(a.atoms))
	a.atoms = append(a.atoms, atomNode{pred: pred, eq: eq, uninterpreted: uninterpreted, args: owned, ground: ground})
	a.atomTable[h] = append(a.atomTable[h], id)
	return id
}

// InternPred interns a predicate atom by symbol and argument IDs.
func (a *Arena) InternPred(pred Sym, uninterpreted bool, args []TermID) AtomID {
	return a.internAtomNode(pred, false, uninterpreted, args)
}

// LookupPred returns the predicate atom with the given symbol and argument
// IDs when it is already interned. Unlike InternPred it never adds one, so
// a caller can ask about an atom it may not keep.
func (a *Arena) LookupPred(pred Sym, args []TermID) (AtomID, bool) {
	return a.findAtom(a.atomHash(pred, false, args), pred, false, args)
}

// InternEq interns an equality atom between two term IDs.
func (a *Arena) InternEq(x, y TermID) AtomID {
	return a.internAtomNode(a.Sym("="), true, false, []TermID{x, y})
}

// InternAtom interns an atomic formula (OpPred or OpEq). It panics on
// non-atomic input; the clausifier guarantees atoms here.
func (a *Arena) InternAtom(f *Formula) AtomID {
	switch f.Op {
	case OpPred:
		var args []TermID
		if len(f.Terms) > 0 {
			args = make([]TermID, len(f.Terms))
			for i, t := range f.Terms {
				args[i] = a.InternTerm(t)
			}
		}
		return a.InternPred(a.Sym(f.Pred), f.Uninterpreted, args)
	case OpEq:
		return a.InternEq(a.InternTerm(f.Terms[0]), a.InternTerm(f.Terms[1]))
	default:
		panic("fol: InternAtom of non-atomic formula " + f.Op.String())
	}
}

// AtomGround reports whether the atom's arguments are all ground.
func (a *Arena) AtomGround(id AtomID) bool { return a.atoms[id].ground }

// AtomEq reports whether the atom is an equality.
func (a *Arena) AtomEq(id AtomID) bool { return a.atoms[id].eq }

// AtomPred returns the atom's predicate symbol (meaningless for
// equalities).
func (a *Arena) AtomPred(id AtomID) Sym { return a.atoms[id].pred }

// AtomArgs returns the atom's argument term IDs (arena-owned).
func (a *Arena) AtomArgs(id AtomID) []TermID { return a.atoms[id].args }

// AtomFormula reconstructs the AST form of an interned atom.
func (a *Arena) AtomFormula(id AtomID) *Formula {
	n := &a.atoms[id]
	if n.eq {
		return Eq(a.Term(n.args[0]), a.Term(n.args[1]))
	}
	args := make([]Term, len(n.args))
	for i, arg := range n.args {
		args[i] = a.Term(arg)
	}
	f := Pred(a.syms[n.pred], args...)
	f.Uninterpreted = n.uninterpreted
	return f
}

// InternClause interns an AST clause to interned-literal form.
func (a *Arena) InternClause(c Clause) IClause {
	ic := make(IClause, len(c))
	for i, lit := range c {
		ic[i] = MkILit(a.InternAtom(lit.Atom), lit.Neg)
	}
	return ic
}

// Canon sorts the clause ascending and removes duplicate literals,
// in place, returning the canonical slice (possibly shorter). Sorted
// interned literals give clause identity without rendering anything.
func (c IClause) Canon() IClause {
	if len(c) < 2 {
		return c
	}
	// Insertion sort: clauses are short and often nearly sorted.
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	out := c[:1]
	for _, l := range c[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// Tautology reports whether the canonical clause contains a literal and
// its negation (requires Canon first: complementary literals are
// adjacent after sorting).
func (c IClause) Tautology() bool {
	for i := 1; i < len(c); i++ {
		if c[i] == c[i-1]^1 {
			return true
		}
	}
	return false
}

// Subst applies a substitution (variable sym -> replacement term ID) to a
// term. Unmapped variables are left in place; the substitution never
// introduces variables bound elsewhere (instantiation substitutions map
// to ground terms).
func (a *Arena) Subst(id TermID, sub map[Sym]TermID) TermID {
	n := &a.terms[id]
	if n.ground {
		return id
	}
	switch n.kind {
	case TermVar:
		if r, ok := sub[n.sym]; ok {
			return r
		}
		return id
	case TermApp:
		changed := false
		args := make([]TermID, len(n.args))
		for i, arg := range n.args {
			args[i] = a.Subst(arg, sub)
			if args[i] != arg {
				changed = true
			}
		}
		if !changed {
			return id
		}
		return a.InternApp(a.terms[id].sym, args)
	default:
		return id
	}
}

// SubstAtom applies a substitution to an atom.
func (a *Arena) SubstAtom(id AtomID, sub map[Sym]TermID) AtomID {
	n := &a.atoms[id]
	if n.ground {
		return id
	}
	changed := false
	args := make([]TermID, len(n.args))
	for i, arg := range n.args {
		args[i] = a.Subst(arg, sub)
		if args[i] != arg {
			changed = true
		}
	}
	if !changed {
		return id
	}
	m := &a.atoms[id]
	return a.internAtomNode(m.pred, m.eq, m.uninterpreted, args)
}

// TermVars appends the distinct variable symbols of the term to out and
// returns the extended slice. Order is first-occurrence.
func (a *Arena) TermVars(id TermID, out []Sym) []Sym {
	n := &a.terms[id]
	if n.ground {
		return out
	}
	if n.kind == TermVar {
		for _, s := range out {
			if s == n.sym {
				return out
			}
		}
		return append(out, n.sym)
	}
	for _, arg := range n.args {
		out = a.TermVars(arg, out)
	}
	return out
}

// AtomVars appends the distinct variable symbols of the atom to out.
func (a *Arena) AtomVars(id AtomID, out []Sym) []Sym {
	n := &a.atoms[id]
	if n.ground {
		return out
	}
	for _, arg := range n.args {
		out = a.TermVars(arg, out)
	}
	return out
}

// ClauseVars returns the distinct variable symbols of the clause in
// first-occurrence order (nil for ground clauses).
func (a *Arena) ClauseVars(c IClause) []Sym {
	var out []Sym
	for _, l := range c {
		out = a.AtomVars(l.Atom(), out)
	}
	return out
}

// Match unifies a pattern term (may contain variables) against a ground
// term, extending sub. It reports whether the match succeeded; on failure
// sub may hold partial bindings and the caller discards it.
func (a *Arena) Match(pattern, ground TermID, sub map[Sym]TermID) bool {
	p := &a.terms[pattern]
	switch p.kind {
	case TermVar:
		if bound, ok := sub[p.sym]; ok {
			return bound == ground
		}
		sub[p.sym] = ground
		return true
	case TermConst:
		return pattern == ground
	default:
		g := &a.terms[ground]
		if g.kind != TermApp || g.sym != p.sym || len(g.args) != len(p.args) {
			return false
		}
		for i := range p.args {
			if !a.Match(p.args[i], g.args[i], sub) {
				return false
			}
		}
		return true
	}
}

// MatchAtom unifies a pattern atom against a ground atom, extending sub.
func (a *Arena) MatchAtom(pattern, ground AtomID, sub map[Sym]TermID) bool {
	p, g := &a.atoms[pattern], &a.atoms[ground]
	if p.pred != g.pred || p.eq != g.eq || len(p.args) != len(g.args) {
		return false
	}
	for i := range p.args {
		if !a.Match(p.args[i], g.args[i], sub) {
			return false
		}
	}
	return true
}

// GroundSubterms appends every ground subterm of id (including id itself
// when ground) to out and returns the extended slice.
func (a *Arena) GroundSubterms(id TermID, out []TermID) []TermID {
	n := &a.terms[id]
	if n.ground {
		out = append(out, id)
	}
	for _, arg := range n.args {
		out = a.GroundSubterms(arg, out)
	}
	return out
}
