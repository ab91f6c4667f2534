package smt

import (
	"context"
	"sort"
	"strings"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/sat"
)

// qClause is one quantified (non-ground) clause awaiting instantiation.
type qClause struct {
	lits fol.IClause
	vars []fol.Sym
	// sel, when non-zero, is the selector literal appended (negated) to
	// every instance, so the clause is active only under that assumption.
	sel sat.Lit
	// trigger is the E-matching pattern atom (TriggerBased).
	trigger    fol.AtomID
	hasTrigger bool
	// candPos is the next unprocessed candidate position in the trigger
	// predicate's atom index — candidates are consumed incrementally, so
	// a round's matching cost is proportional to atoms added since the
	// previous round, never to the whole index.
	candPos int
	// uniDone is the universe size this clause has been fully
	// instantiated against (FullGrounding, RelevantGrounding): a later
	// round enumerates only tuples containing at least one newer term.
	uniDone int
	// occGen is the occurrence generation (groundCore.occGen) under which
	// RelevantGrounding examined the tuples below uniDone, or allGrounded
	// when every one of them was instantiated.
	occGen int
	// dead marks clauses of retired goal scopes: their ground instances
	// remain (disabled by the selector) but no further instantiation.
	dead bool
}

// callStats accumulates per-check effort (the deltas reported in
// Result.Stats for one check).
type callStats struct {
	count  int
	rounds int
	// examined counts the tuples RelevantGrounding examined, added or
	// skipped; its instantiation budget is spent on these.
	examined int
}

// allGrounded marks a clause whose tuples below uniDone were all
// instantiated, so no skip is left to re-examine (see qClause.occGen).
const allGrounded = -1

// dedupEntry is one canonical ground clause in the dedup table, keyed
// together with its selector (the same clause may legitimately recur
// under a different goal's selector).
type dedupEntry struct {
	lits fol.IClause
	sel  sat.Lit
}

// groundCore is the interned, incremental heart of the solver: hash-consed
// terms and atoms (fol.Arena), the ground clause set handed to the CDCL
// core, quantified clauses with their instantiation progress, the term
// universe and the E-matching atom index. Everything is integer-keyed — no
// String() rendering and no map[string] on the solve path — and all state
// is reused across instantiation rounds, theory-lemma iterations and a
// Solver's successive checks.
type groundCore struct {
	arena    *fol.Arena
	strategy InstStrategy

	core    *sat.Solver
	nextVar int
	atomVar []int        // AtomID -> sat var (0 = unmapped)
	varAtom []fol.AtomID // sat var -> AtomID (-1 for selector vars)
	// eqVars counts the SAT variables mapped to equality atoms; while it
	// is 0 no model can be theory-inconsistent (see theoryConflict).
	eqVars int

	quant    []qClause
	universe []fol.TermID
	uniPos   []int32 // TermID -> 1 + its index in universe (0 = absent)

	// Occurrences, for RelevantGrounding. occ holds, per atom, which
	// polarities (occBit) occur in an asserted ground clause; occIndex
	// lists those atoms by predicate; qOcc lists the non-nullary literals
	// of live quantified clauses by predicate, rebuilt after g.quant
	// changes. occGen grows whenever the occurrences do, so tuples
	// skipped under fewer occurrences get examined again.
	occ      []uint8
	occIndex map[fol.Sym][]fol.AtomID
	qOcc     map[fol.Sym][]fol.ILit
	occGen   int

	// atomIndex maps predicate symbol -> ground atoms bearing it, in
	// first-seen order. It only ever grows; atomIndexed marks AtomIDs
	// already present so each ground atom is indexed exactly once.
	atomIndex   map[fol.Sym][]fol.AtomID
	atomIndexed []bool
	// indexOps counts atom-index insertions — the regression test asserts
	// it stays O(distinct ground atoms) regardless of round count.
	indexOps int

	clauseTable map[uint64][]dedupEntry

	// funcSels holds the selectors (0 for the base) whose clauses mention
	// function symbols. A selector leaves the set when its scope retires,
	// so a past goal's Skolem functions do not permanently degrade later
	// Sat answers to Unknown.
	funcSels map[sat.Lit]bool
	// eqSels holds, like funcSels, the selectors whose clauses mention an
	// equality atom.
	eqSels map[sat.Lit]bool
	// complete records whether the last instantiate call reached a
	// fixpoint over the live clauses, nothing skipped (sound Sat answers
	// require it for quantified problems). Recomputed per call: retired
	// clauses' pending work does not count.
	complete bool

	groundClauses int // distinct ground clauses handed to the SAT core
	dedupHits     int // clauses requested again and answered by the table
	skolemSeq     int // per-addFormula skolem tag sequence

	scratchSub map[fol.Sym]fol.TermID
	litBuf     []sat.Lit
	termBuf    []fol.TermID
	argBuf     []fol.TermID
	allIdx     []int // 0, 1, 2, ...: every universe index
	ufParent   []int
	ufVal      []fol.TermID
}

func newGroundCore(strategy InstStrategy) *groundCore {
	return &groundCore{
		arena:       fol.NewArena(),
		strategy:    strategy,
		core:        sat.New(),
		atomVar:     []int{},
		atomIndex:   map[fol.Sym][]fol.AtomID{},
		occIndex:    map[fol.Sym][]fol.AtomID{},
		clauseTable: map[uint64][]dedupEntry{},
		funcSels:    map[sat.Lit]bool{},
		eqSels:      map[sat.Lit]bool{},
		complete:    true,
		scratchSub:  map[fol.Sym]fol.TermID{},
	}
}

// beginCheck grants the next check a fresh SAT step budget: the limit is
// per check, not per core lifetime, however many checks the core answers.
func (g *groundCore) beginCheck(lim Limits) {
	g.core.Budget = lim.MaxSatSteps
	g.core.ResetSteps()
}

// satVarOf maps an atom to its SAT variable, allocating on first sight.
func (g *groundCore) satVarOf(a fol.AtomID) sat.Lit {
	g.growAtomTables()
	if v := g.atomVar[a]; v != 0 {
		return sat.Lit(v)
	}
	g.nextVar++
	g.atomVar[a] = g.nextVar
	for len(g.varAtom) <= g.nextVar {
		g.varAtom = append(g.varAtom, -1)
	}
	g.varAtom[g.nextVar] = a
	if g.arena.AtomEq(a) {
		g.eqVars++
	}
	return sat.Lit(g.nextVar)
}

// newSelector allocates a fresh SAT variable with no atom attached.
func (g *groundCore) newSelector() sat.Lit {
	g.nextVar++
	for len(g.varAtom) <= g.nextVar {
		g.varAtom = append(g.varAtom, -1)
	}
	return sat.Lit(g.nextVar)
}

func (g *groundCore) growAtomTables() {
	for len(g.atomVar) < g.arena.NumAtoms() {
		g.atomVar = append(g.atomVar, 0)
	}
	for len(g.atomIndexed) < g.arena.NumAtoms() {
		g.atomIndexed = append(g.atomIndexed, false)
	}
}

func (g *groundCore) growTermTables() {
	for len(g.uniPos) < g.arena.NumTerms() {
		g.uniPos = append(g.uniPos, 0)
	}
}

// addUniverseTerm adds a ground term to the instantiation universe.
func (g *groundCore) addUniverseTerm(id fol.TermID) {
	g.growTermTables()
	if g.uniPos[id] != 0 {
		return
	}
	g.universe = append(g.universe, id)
	g.uniPos[id] = int32(len(g.universe))
}

// harvestConstants walks a term and adds its constant leaves to the
// universe (the seed universe, mirroring collectConstants).
func (g *groundCore) harvestConstants(id fol.TermID) {
	switch g.arena.TermKindOf(id) {
	case fol.TermConst:
		g.addUniverseTerm(id)
	case fol.TermApp:
		for _, arg := range g.arena.TermArgs(id) {
			g.harvestConstants(arg)
		}
	}
}

// termContainsApp reports whether the term contains a function application.
func (g *groundCore) termContainsApp(id fol.TermID) bool {
	if g.arena.TermKindOf(id) == fol.TermApp {
		return true
	}
	for _, arg := range g.arena.TermArgs(id) {
		if g.termContainsApp(arg) {
			return true
		}
	}
	return false
}

// seenClause records the canonical clause+selector in the dedup table and
// reports whether it was already present.
func (g *groundCore) seenClause(c fol.IClause, sel sat.Lit) bool {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(int64(sel)) + 1)
	for _, l := range c {
		mix(uint64(l) + 1)
	}
	for _, prev := range g.clauseTable[h] {
		if prev.sel != sel || len(prev.lits) != len(c) {
			continue
		}
		same := true
		for i := range c {
			if prev.lits[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	stored := make(fol.IClause, len(c))
	copy(stored, c)
	g.clauseTable[h] = append(g.clauseTable[h], dedupEntry{lits: stored, sel: sel})
	return false
}

// indexGroundAtoms adds the clause's ground predicate atoms to the
// E-matching index (each atom exactly once, ever).
func (g *groundCore) indexGroundAtoms(c fol.IClause) {
	g.growAtomTables()
	for _, l := range c {
		a := l.Atom()
		if g.atomIndexed[a] || g.arena.AtomEq(a) || !g.arena.AtomGround(a) {
			continue
		}
		g.atomIndexed[a] = true
		sym := g.arena.AtomPred(a)
		g.atomIndex[sym] = append(g.atomIndex[sym], a)
		g.indexOps++
	}
}

// addGround canonicalizes a ground clause and hands it to the SAT core
// unless it is a tautology or a duplicate. harvestAll selects full ground
// subterm harvesting (instances) vs constant-only seeding (asserted
// clauses). It reports whether the clause was new.
func (g *groundCore) addGround(c fol.IClause, sel sat.Lit, harvestAll bool) bool {
	c = c.Canon()
	if c.Tautology() {
		return false
	}
	if g.seenClause(c, sel) {
		g.dedupHits++
		return false
	}
	lits := g.litBuf[:0]
	for _, l := range c {
		v := g.satVarOf(l.Atom())
		if l.Neg() {
			v = v.Neg()
		}
		lits = append(lits, v)
	}
	if sel != 0 {
		lits = append(lits, sel.Neg())
	}
	g.litBuf = lits[:0]
	g.core.AddClause(lits...)
	g.groundClauses++
	g.indexGroundAtoms(c)
	if harvestAll {
		for _, l := range c {
			for _, arg := range g.arena.AtomArgs(l.Atom()) {
				g.termBuf = g.arena.GroundSubterms(arg, g.termBuf[:0])
				for _, sub := range g.termBuf {
					g.addUniverseTerm(sub)
				}
			}
		}
	}
	return true
}

// pickTriggerInterned selects the literal whose atom covers the most
// clause variables; the trigger must bind every variable of the clause.
func (g *groundCore) pickTriggerInterned(lits fol.IClause, vars []fol.Sym) (fol.AtomID, bool) {
	var best fol.AtomID
	found := false
	bestCover := -1
	var buf []fol.Sym
	for _, l := range lits {
		a := l.Atom()
		if g.arena.AtomEq(a) {
			continue
		}
		buf = g.arena.AtomVars(a, buf[:0])
		if len(buf) > bestCover {
			best = a
			bestCover = len(buf)
			found = true
		}
	}
	if !found || bestCover < len(vars) {
		return 0, false
	}
	return best, true
}

// addFormula clausifies an assertion and feeds it to the core. sel (when
// non-zero) scopes every resulting clause — original and instances — to
// that selector. Each interned clause's constants join the universe and
// its function symbols are noted (they break grounding completeness);
// ground clauses go to the SAT core and quantified ones to the
// instantiation queue. Clausification failures are returned verbatim.
func (g *groundCore) addFormula(f *fol.Formula, sel sat.Lit) error {
	tag := ""
	if g.skolemSeq > 0 {
		tag = "@" + itoa(g.skolemSeq)
	}
	g.skolemSeq++
	clauses, err := fol.ClausesOfTagged(fol.Simplify(f), tag)
	if err != nil {
		return err
	}
	for _, c := range clauses {
		ic := g.arena.InternClause(c)
		for _, l := range ic {
			if g.arena.AtomEq(l.Atom()) {
				g.eqSels[sel] = true
			}
			for _, arg := range g.arena.AtomArgs(l.Atom()) {
				g.harvestConstants(arg)
				if g.termContainsApp(arg) {
					g.funcSels[sel] = true
				}
			}
		}
		vars := g.arena.ClauseVars(ic)
		if len(vars) == 0 {
			g.noteGround(ic)
			g.addGround(ic, sel, false)
			continue
		}
		qc := qClause{lits: ic, vars: vars, sel: sel}
		if g.strategy == TriggerBased {
			qc.trigger, qc.hasTrigger = g.pickTriggerInterned(ic, vars)
		}
		g.quant = append(g.quant, qc)
		g.qOcc = nil
		g.occGen++
	}
	return nil
}

// itoa is strconv.Itoa without the import weight in this hot file.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// instantiate grounds the live quantified clauses to fixpoint under the
// limits, incrementally: full grounding enumerates only substitution
// tuples containing at least one term newer than each clause's last pass,
// and trigger matching consumes only index candidates added since the
// clause's last pass. g.complete records whether instantiation finished
// (fixpoint reached, nothing skipped).
func (g *groundCore) instantiate(ctx context.Context, lim Limits, deadline time.Time, st *callStats) {
	if !g.liveQuant() {
		g.complete = true
		return
	}
	if g.strategy == TriggerBased {
		g.instantiateTrigger(ctx, lim, st)
		return
	}
	g.instantiateFull(ctx, lim, deadline, st)
}

// liveQuant reports whether any non-retired quantified clause exists.
func (g *groundCore) liveQuant() bool {
	for i := range g.quant {
		if !g.quant[i].dead {
			return true
		}
	}
	return false
}

// hasFuncs reports whether the live problem (base plus unretired scopes)
// mentions function symbols.
func (g *groundCore) hasFuncs() bool { return len(g.funcSels) > 0 }

// instantiateFull grounds under FullGrounding, and under
// RelevantGrounding, which skips instances with a pure literal while the
// live problem has neither function symbols nor equality atoms.
func (g *groundCore) instantiateFull(ctx context.Context, lim Limits, deadline time.Time, st *callStats) {
	if len(g.universe) == 0 {
		g.addUniverseTerm(g.arena.InternConst(g.arena.Sym("$elem")))
	}
	relevant := g.strategy == RelevantGrounding && !g.hasFuncs() && len(g.eqSels) == 0
	gen := allGrounded
	if relevant {
		gen = g.occGen
	}
	stopped := false
rounds:
	for round := 0; round < lim.MaxRounds; round++ {
		st.rounds = round + 1
		uniLen := len(g.universe)
		for qi := range g.quant {
			qc := &g.quant[qi]
			if qc.dead {
				continue
			}
			if qc.occGen != allGrounded && qc.occGen != gen {
				// Tuples skipped under other occurrences: examine all again.
				qc.uniDone = 0
			}
			if qc.uniDone >= uniLen {
				continue
			}
			if !g.enumerateNew(ctx, lim, deadline, st, qc, uniLen, relevant) {
				stopped = true
				break rounds
			}
			qc.uniDone, qc.occGen = uniLen, gen
		}
		if len(g.universe) == uniLen {
			break
		}
	}
	// Complete iff every live clause is fully instantiated against the
	// final universe: a budget stop or a growth round past MaxRounds
	// leaves a live clause with uniDone behind the universe. Retired
	// clauses' pending work is irrelevant (their instances are disabled).
	g.complete = !stopped
	for i := range g.quant {
		qc := &g.quant[i]
		if !qc.dead && qc.uniDone < len(g.universe) {
			g.complete = false
		}
	}
}

// enumerateNew instantiates one clause over every tuple of universe
// indices in [0, uniLen) that includes at least one index >= qc.uniDone.
// When relevant, each variable ranges over its candidates only
// (relevantCands), every tuple examined is charged to the budget, and an
// instance with a pure literal is skipped. It returns false when a budget,
// the deadline or ctx stopped enumeration early.
func (g *groundCore) enumerateNew(ctx context.Context, lim Limits, deadline time.Time, st *callStats, qc *qClause, uniLen int, relevant bool) bool {
	k := len(qc.vars)
	var cands [][]int
	if relevant {
		if cands = g.relevantCands(qc, uniLen); cands == nil {
			return true
		}
	} else {
		cands = make([][]int, k)
		for i := range cands {
			cands[i] = g.universeIdx(uniLen)
		}
	}
	// split[i] is the first candidate of variable i that is a new term.
	split := make([]int, k)
	for i, c := range cands {
		split[i] = sort.SearchInts(c, qc.uniDone)
	}
	pos, idxs := make([]int, k), make([]int, k)
	// Partition by the first position holding a new term: positions
	// before j range over old terms only, j over new terms, after j over
	// everything.
	for j := 0; j < k; j++ {
		if qc.uniDone == 0 && j > 0 {
			break // only the j=0 block is nonempty when nothing is old
		}
		lo := func(i int) int {
			if i == j {
				return split[i]
			}
			return 0
		}
		hi := func(i int) int {
			if i < j {
				return split[i]
			}
			return len(cands[i])
		}
		empty := false
		for i := 0; i < k; i++ {
			pos[i] = lo(i)
			if pos[i] >= hi(i) {
				empty = true
			}
		}
		if empty {
			continue
		}
		for {
			spent := st.count
			if relevant {
				spent = st.examined
			}
			if spent >= lim.MaxInstantiations {
				return false
			}
			if ctx.Err() != nil {
				return false
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return false
			}
			for i, p := range pos {
				idxs[i] = cands[i][p]
			}
			if relevant {
				st.examined++
			}
			if !relevant || !g.hasPureLiteral(qc, idxs) {
				g.instantiateTuple(st, qc, idxs)
			}
			// Advance the mixed-radix odometer.
			p := k - 1
			for ; p >= 0; p-- {
				pos[p]++
				if pos[p] < hi(p) {
					break
				}
				pos[p] = lo(p)
			}
			if p < 0 {
				break
			}
		}
	}
	return true
}

// instantiateTuple applies one substitution tuple to the clause and adds
// the resulting ground instance.
func (g *groundCore) instantiateTuple(st *callStats, qc *qClause, idxs []int) {
	sub := g.scratchSub
	for s := range sub {
		delete(sub, s)
	}
	for vi, v := range qc.vars {
		sub[v] = g.universe[idxs[vi]]
	}
	inst := make(fol.IClause, len(qc.lits))
	for i, l := range qc.lits {
		inst[i] = fol.MkILit(g.arena.SubstAtom(l.Atom(), sub), l.Neg())
	}
	if g.addGround(inst, qc.sel, true) {
		st.count++
	}
}

func (g *groundCore) instantiateTrigger(ctx context.Context, lim Limits, st *callStats) {
	// Trigger instantiation is never exhaustive over the universe: a model
	// over the instances does not imply satisfiability while any live
	// quantified clause exists.
	g.complete = false
	stopped := false
	for round := 0; round < lim.MaxRounds; round++ {
		st.rounds = round + 1
		grew := false
		for qi := range g.quant {
			qc := &g.quant[qi]
			if qc.dead {
				continue
			}
			if !qc.hasTrigger {
				continue
			}
			sym := g.arena.AtomPred(qc.trigger)
			for qc.candPos < len(g.atomIndex[sym]) {
				if st.count >= lim.MaxInstantiations || ctx.Err() != nil {
					stopped = true
					break
				}
				cand := g.atomIndex[sym][qc.candPos]
				qc.candPos++
				sub := g.scratchSub
				for s := range sub {
					delete(sub, s)
				}
				if !g.arena.MatchAtom(qc.trigger, cand, sub) {
					continue
				}
				inst := make(fol.IClause, len(qc.lits))
				ground := true
				for i, l := range qc.lits {
					a := g.arena.SubstAtom(l.Atom(), sub)
					if !g.arena.AtomGround(a) {
						ground = false
						break
					}
					inst[i] = fol.MkILit(a, l.Neg())
				}
				if !ground {
					// Leftover variables outside the trigger: skip, losing
					// completeness (already conceded) but keeping soundness.
					continue
				}
				if g.addGround(inst, qc.sel, false) {
					st.count++
					grew = true
				}
			}
			if stopped {
				break
			}
		}
		if stopped || !grew {
			break
		}
	}
}

// retire permanently disables one scope: its quantified clauses die (their
// ground instances stay in the SAT core but no longer take part in
// instantiation, in the occurrences or in the completeness verdict), its
// function symbols and equality atoms stop counting, and the unit ¬sel
// satisfies every clause it guards at level 0.
// The selector must never be assumed again.
func (g *groundCore) retire(sel sat.Lit) {
	for i := range g.quant {
		if g.quant[i].sel == sel {
			g.quant[i].dead = true
		}
	}
	g.qOcc = nil
	delete(g.funcSels, sel)
	delete(g.eqSels, sel)
	g.core.AddClause(sel.Neg())
}

// solveLoop is the DPLL(T) refinement loop: SAT-solve (under the given
// assumptions), theory-check the model, add a blocking lemma, repeat.
// Blocking lemmas are theory-valid, so they are added unconditionally and
// persist across a Solver's checks. The result's Status/Reason/Model
// fields are filled in; callers fill the rest of Stats.
func (g *groundCore) solveLoop(ctx context.Context, lim Limits, deadline time.Time, res *Result, assumptions []sat.Lit) {
	for lemmas := 0; ; lemmas++ {
		if ctx.Err() != nil {
			res.Status = Unknown
			res.Reason = canceledReason
			res.Stats.SAT = g.core.Stats()
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.Status = Unknown
			res.Reason = "timeout"
			res.Stats.SAT = g.core.Stats()
			return
		}
		if lemmas > lim.MaxTheoryLemmas {
			res.Status = Unknown
			res.Reason = "theory lemma budget exhausted"
			res.Stats.SAT = g.core.Stats()
			return
		}
		switch g.core.Solve(assumptions...) {
		case sat.Unsat:
			res.Status = Unsat
			res.Stats.SAT = g.core.Stats()
			res.Stats.TheoryLemmas = lemmas
			return
		case sat.Unknown:
			res.Status = Unknown
			res.Reason = "SAT step budget exhausted"
			res.Stats.SAT = g.core.Stats()
			res.Stats.TheoryLemmas = lemmas
			return
		}
		conflict := g.theoryConflict()
		if conflict == nil {
			res.Stats.SAT = g.core.Stats()
			res.Stats.TheoryLemmas = lemmas
			// A model was found. It is definitive only when instantiation
			// was complete for a fragment where grounding is exhaustive.
			if g.liveQuant() && (!g.complete || g.hasFuncs()) {
				res.Status = Unknown
				res.Reason = "model found but quantifier instantiation incomplete"
				return
			}
			res.Status = Sat
			res.Model = map[string]bool{}
			for v := 1; v <= g.nextVar; v++ {
				a := g.varAtom[v]
				if a < 0 || g.arena.AtomEq(a) || len(g.arena.AtomArgs(a)) != 0 {
					continue
				}
				// Clone: a decoded script's names point into its source
				// text, which a cached Result must not keep alive.
				res.Model[strings.Clone(g.arena.SymName(g.arena.AtomPred(a)))] = g.core.Value(v)
			}
			return
		}
		g.core.AddClause(conflict...)
	}
}

// atomCount reports how many distinct atoms are mapped to SAT variables
// (selector variables excluded).
func (g *groundCore) atomCount() int {
	n := 0
	for v := 1; v <= g.nextVar; v++ {
		if g.varAtom[v] >= 0 {
			n++
		}
	}
	return n
}
