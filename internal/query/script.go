package query

import (
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/smtlib"
)

// A question's encoding per §3. The subgraph's policy statements become
// practice(actor, action, data, other) facts, negated for denials and
// guarded by uninterpreted condition predicates (the question's vague
// placeholders) when conditional; the data hierarchy contributes ground
// subtype(a, b) facts for every data term a of the subgraph and the
// question and each ancestor b of a among them, plus reflexivity; the
// question becomes the goal ∃d. subtype(d, data) ∧ practice(actor,
// action, d, other), where a question naming no receiver lets any
// counterparty o witness the practice.
//
// There is no transitivity axiom. The subtype facts already hold every
// ancestor pair among the encoded data terms, and the ancestor pairs of a
// tree are transitive. subtype occurs positively only in those facts and
// in reflexivity, negatively only in ¬goal, and under no equality, so any
// model can shrink subtype to identity plus the facts: asserting
// transitivity changes no status, while full grounding instantiates it
// over every constant cubed. Reflexivity must stay: ¬goal instantiated at
// d = data refutes a practice on the queried term itself only through
// subtype(data, data).
//
// With SimplifyFOL the policy is simplified as fol.Simplify simplifies a
// conjunction: a repeated statement is kept once, at its first place, and
// an unconditional allow and deny of the same practice make the whole
// policy false.
//
// The script checks every goal check of the question on one ground core:
//
//	(assert policy)
//	(push 1)
//	(assert (not goal))
//	(check-sat)                     ; one per goal check: unsat means the
//	(check-sat-assuming (lits...))  ; goal follows, under the literals
//	(pop 1)
//	(check-sat)                     ; policy alone: unsat means the
//	                                ; policy contradicts itself
//
// preceded by declarations of the constants and predicates the asserted
// formulas use, each list sorted, a condition predicate tagged as a
// placeholder. Its text keys the result cache, is what include_script
// returns and what /v1/solve replays; the solver's problem, built only
// when the cache misses, is what that text decodes to.

// scriptHeader opens every question's script.
const scriptHeader = "(set-logic UF)\n(set-option :produce-models true)\n" +
	"(set-info :source \"privacy query verification\")\n(declare-sort U 0)\n"

// practiceFact is one policy statement: practice(args), negated when
// deny, implied by the condition predicate cond when cond is not empty.
type practiceFact struct {
	args [4]string
	deny bool
	cond string
}

// goalCheck is one goal check of a question: a plain check-sat, or with
// assume a check-sat-assuming of every placeholder, negated where its bit
// in mask (bit i for the i-th placeholder in sorted order) is clear. With
// no placeholders every check is a plain check-sat.
type goalCheck struct {
	assume bool
	mask   int
}

// goalsFunc lists the goal checks a path asks of a question with n vague
// placeholders.
type goalsFunc func(n int) ([]goalCheck, error)

// encoding is one question's script and what its solver problem and
// reported formula are built from.
type encoding struct {
	script       string
	placeholders []string

	// The policy's statements as the script asserts them; falsePolicy
	// when simplification found an allow and a deny of one practice.
	practices   []practiceFact
	subtypes    [][2]string
	falsePolicy bool
	// nested: the policy was not simplified, so the reported formula is
	// (policy) ∧ ¬goal rather than one flat conjunction.
	nested bool
	// The goal's constants; other is empty when any counterparty
	// witnesses the practice.
	actor, action, data, other string
	goalChecks                 []goalCheck
	consts                     []string
	// declareConds: the condition predicates are declared, as they are
	// whenever the policy or a goal check mentions them.
	declareConds bool
}

// encode writes the question's script over edges, with the goal checks
// goals lists, straight from the edges: no formula tree, simplification
// pass or signature walk, and each distinct term sanitized once.
func (e *Engine) encode(q *resolved, edges []*graph.Edge, goals goalsFunc) (*encoding, error) {
	syms := &symbols{terms: make(map[string]string, 2*len(edges)+4)}
	enc := &encoding{
		nested: !e.SimplifyFOL,
		actor:  syms.of(q.actor), action: syms.of(q.action), data: syms.of(q.data),
	}
	if q.other != "" {
		enc.other = syms.of(q.other)
	}

	enc.practices = make([]practiceFact, 0, len(edges))
	var seen map[practiceFact]bool
	if e.SimplifyFOL {
		seen = make(map[practiceFact]bool, len(edges))
	}
	for _, ed := range edges {
		other := ed.Other
		if other == "" {
			other = ed.From
		}
		f := practiceFact{
			args: [4]string{syms.of(ed.From), syms.of(ed.Label), syms.of(ed.To), syms.of(other)},
			deny: ed.Permission == "deny",
		}
		if ed.Condition != "" {
			f.cond = syms.cond(ed.Condition)
			enc.placeholders = append(enc.placeholders, f.cond)
		}
		if seen != nil {
			if seen[f] {
				continue
			}
			if f.cond == "" && seen[practiceFact{args: f.args, deny: !f.deny}] {
				enc.falsePolicy = true
			}
			seen[f] = true
		}
		enc.practices = append(enc.practices, f)
	}
	slices.Sort(enc.placeholders)
	enc.placeholders = slices.Compact(enc.placeholders)
	if enc.placeholders == nil {
		enc.placeholders = []string{} // Explore reports none as []
	}

	if !e.NoHierarchy {
		enc.subtypes = e.subtypeFacts(edges, q.data, syms)
	}

	// Every term sanitized above is a constant of the script's formulas,
	// unless the policy is false and only the goal's remain.
	enc.consts = syms.list
	if enc.falsePolicy {
		enc.practices, enc.subtypes = nil, nil
		enc.consts = []string{enc.actor, enc.action, enc.data}
		if enc.other != "" {
			enc.consts = append(enc.consts, enc.other)
		}
	}
	slices.Sort(enc.consts)
	enc.consts = slices.Compact(enc.consts)

	checks, err := goals(len(enc.placeholders))
	if err != nil {
		return nil, err
	}
	enc.goalChecks = checks
	enc.declareConds = !enc.falsePolicy
	for _, c := range checks {
		enc.declareConds = enc.declareConds || c.assume
	}
	enc.script = enc.write()
	return enc, nil
}

// subtypeFacts returns the subtype facts of the question's data terms:
// the subgraph's data types and the queried one, in sorted order, each
// paired with its ancestors among them in sorted order; when simplifying,
// a pair of terms that sanitize alike is kept once. The hierarchy is a
// tree, so a term's ancestors are exactly the terms that subsume it;
// walking them, instead of testing every pair of terms, keeps a
// whole-policy encoding from going quadratic in its data terms.
func (e *Engine) subtypeFacts(edges []*graph.Edge, data string, syms *symbols) [][2]string {
	terms := make([]string, 0, len(edges)+1)
	if data != "" {
		terms = append(terms, data)
	}
	for _, ed := range edges {
		terms = append(terms, ed.To)
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)

	var facts [][2]string
	var above []string
	for _, a := range terms {
		above = above[:0]
		for b, ok := e.KG.DataH.Parent(a); ok; b, ok = e.KG.DataH.Parent(b) {
			if _, found := slices.BinarySearch(terms, b); found {
				above = append(above, b)
			}
		}
		sort.Strings(above)
		for _, b := range above {
			f := [2]string{syms.of(a), syms.of(b)}
			if !e.SimplifyFOL || !slices.Contains(facts, f) {
				facts = append(facts, f)
			}
		}
	}
	return facts
}

// write renders the script.
func (enc *encoding) write() string {
	var b strings.Builder
	n := len(scriptHeader) + 200 + 40*len(enc.goalChecks)
	for _, c := range enc.consts {
		n += len("(declare-const  U)\n") + len(c)
	}
	for _, ph := range enc.placeholders {
		n += len("(set-info :uninterpreted-placeholder )\n(declare-fun  () Bool)\n") + 2*len(ph) + 8*len(enc.goalChecks)
	}
	for _, f := range enc.practices {
		n += len(" (=> (not (practice    )))") + len(f.cond) + len(f.args[0]) + len(f.args[1]) + len(f.args[2]) + len(f.args[3])
	}
	for _, st := range enc.subtypes {
		n += len(" (subtype  )") + len(st[0]) + len(st[1])
	}
	b.Grow(n)

	b.WriteString(scriptHeader)
	for _, c := range enc.consts {
		b.WriteString("(declare-const ")
		b.WriteString(c)
		b.WriteString(" U)\n")
	}
	if enc.declareConds {
		for _, ph := range enc.placeholders {
			b.WriteString("(set-info :uninterpreted-placeholder ")
			b.WriteString(ph)
			b.WriteString(")\n(declare-fun ")
			b.WriteString(ph)
			b.WriteString(" () Bool)\n")
		}
	}
	b.WriteString("(declare-fun practice (U U U U) Bool)\n(declare-fun subtype (U U) Bool)\n")

	b.WriteString("(assert ")
	switch {
	case enc.falsePolicy:
		b.WriteString("false")
	case len(enc.practices)+len(enc.subtypes) == 0:
		b.WriteString(reflexivitySMT)
	default:
		b.WriteString("(and")
		for _, f := range enc.practices {
			b.WriteByte(' ')
			f.writeSMT(&b)
		}
		for _, st := range enc.subtypes {
			b.WriteString(" (subtype ")
			b.WriteString(st[0])
			b.WriteByte(' ')
			b.WriteString(st[1])
			b.WriteByte(')')
		}
		b.WriteString(" " + reflexivitySMT + ")")
	}
	b.WriteString(")\n(push 1)\n(assert (not (exists ((d U)) (and (subtype d ")
	b.WriteString(enc.data)
	b.WriteString(") ")
	if enc.other == "" {
		b.WriteString("(exists ((o U)) ")
	}
	b.WriteString("(practice ")
	b.WriteString(enc.actor)
	b.WriteByte(' ')
	b.WriteString(enc.action)
	b.WriteString(" d ")
	if enc.other == "" {
		b.WriteString("o))")
	} else {
		b.WriteString(enc.other)
		b.WriteByte(')')
	}
	b.WriteString("))))\n")

	for _, c := range enc.goalChecks {
		if !c.assume || len(enc.placeholders) == 0 {
			b.WriteString("(check-sat)\n")
			continue
		}
		b.WriteString("(check-sat-assuming (")
		for i, ph := range enc.placeholders {
			if i > 0 {
				b.WriteByte(' ')
			}
			if c.mask&(1<<i) == 0 {
				b.WriteString("(not ")
				b.WriteString(ph)
				b.WriteByte(')')
			} else {
				b.WriteString(ph)
			}
		}
		b.WriteString("))\n")
	}
	b.WriteString("(pop 1)\n(check-sat)\n")
	return b.String()
}

// reflexivitySMT is ∀x. subtype(x, x) in SMT-LIB.
const reflexivitySMT = "(forall ((x U)) (subtype x x))"

// writeSMT writes the statement in SMT-LIB.
func (f *practiceFact) writeSMT(b *strings.Builder) {
	if f.cond != "" {
		b.WriteString("(=> ")
		b.WriteString(f.cond)
		b.WriteByte(' ')
	}
	if f.deny {
		b.WriteString("(not ")
	}
	b.WriteString("(practice ")
	for i, a := range f.args {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a)
	}
	b.WriteByte(')')
	if f.deny {
		b.WriteByte(')')
	}
	if f.cond != "" {
		b.WriteByte(')')
	}
}

// formula renders policy ∧ ¬goal as fol.Formula.String prints it, with
// its fol.Formula.Size: for a simplified policy the flat conjunction
// fol.Simplify gives the whole formula (⊥ for a false policy), otherwise
// the policy's own conjunction beside ¬goal.
func (enc *encoding) formula() (string, int) {
	if enc.falsePolicy {
		return "⊥", 1
	}
	var b strings.Builder
	n := 80 + len(enc.actor) + len(enc.action) + len(enc.data) + len(enc.other)
	for _, f := range enc.practices {
		n += 32 + len(f.cond) + len(f.args[0]) + len(f.args[1]) + len(f.args[2]) + len(f.args[3])
	}
	for _, st := range enc.subtypes {
		n += 16 + len(st[0]) + len(st[1])
	}
	b.Grow(n)
	b.WriteByte('(')
	size := 1
	stmts := len(enc.practices) + len(enc.subtypes) + 1
	if enc.nested && stmts > 1 {
		b.WriteByte('(')
		size++
	}
	for _, f := range enc.practices {
		size += f.writeFOL(&b)
		b.WriteString(" ∧ ")
	}
	for _, st := range enc.subtypes {
		b.WriteString("subtype(")
		b.WriteString(st[0])
		b.WriteByte(',')
		b.WriteString(st[1])
		b.WriteString(") ∧ ")
		size++
	}
	b.WriteString("∀x. subtype(x,x)")
	size += 2
	if enc.nested && stmts > 1 {
		b.WriteByte(')')
	}
	b.WriteString(" ∧ ¬∃d. (subtype(d,")
	b.WriteString(enc.data)
	b.WriteString(") ∧ ")
	size += 5
	if enc.other == "" {
		b.WriteString("∃o. ")
		size++
	}
	b.WriteString("practice(")
	b.WriteString(enc.actor)
	b.WriteByte(',')
	b.WriteString(enc.action)
	b.WriteString(",d,")
	if enc.other == "" {
		b.WriteByte('o')
	} else {
		b.WriteString(enc.other)
	}
	b.WriteString(")))")
	return b.String(), size
}

// writeFOL writes the statement as fol.Formula.String prints it and
// returns its size.
func (f *practiceFact) writeFOL(b *strings.Builder) int {
	size := 1
	if f.cond != "" {
		b.WriteByte('(')
		b.WriteString(f.cond)
		b.WriteString(" → ")
		size += 2
	}
	if f.deny {
		b.WriteString("¬")
		size++
	}
	b.WriteString("practice(")
	for i, a := range f.args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a)
	}
	b.WriteByte(')')
	if f.cond != "" {
		b.WriteByte(')')
	}
	return size
}

// problem builds the solver problem the script's text decodes to, the
// asserted formulas straight from the statements. A constant named like
// a goal variable reads in the goal as that variable, as in the text.
func (enc *encoding) problem() *smtlib.Problem {
	p := &smtlib.Problem{
		Logic:  "UF",
		Sorts:  []string{smtlib.USort},
		Consts: enc.consts,
		Funcs:  map[string]int{},
		Preds:  map[string]int{"practice": 4, "subtype": 2},
	}
	if enc.declareConds && len(enc.placeholders) > 0 {
		p.Placeholders = enc.placeholders
		for _, ph := range enc.placeholders {
			p.Preds[ph] = 0
		}
	}

	var policy *fol.Formula
	if enc.falsePolicy {
		policy = fol.False()
	} else {
		stmts := make([]*fol.Formula, 0, len(enc.practices)+len(enc.subtypes)+1)
		for _, f := range enc.practices {
			var stmt *fol.Formula = fol.Pred("practice", fol.Const(f.args[0]), fol.Const(f.args[1]), fol.Const(f.args[2]), fol.Const(f.args[3]))
			if f.deny {
				stmt = fol.Not(stmt)
			}
			if f.cond != "" {
				stmt = fol.Implies(fol.UninterpretedPred(f.cond), stmt)
			}
			stmts = append(stmts, stmt)
		}
		for _, st := range enc.subtypes {
			stmts = append(stmts, fol.Pred("subtype", fol.Const(st[0]), fol.Const(st[1])))
		}
		stmts = append(stmts, fol.Forall("x", fol.Pred("subtype", fol.Var("x"), fol.Var("x"))))
		policy = fol.And(stmts...)
	}

	bound := func(name string, vars ...string) fol.Term {
		if slices.Contains(vars, name) {
			return fol.Var(name)
		}
		return fol.Const(name)
	}
	var practice *fol.Formula
	if enc.other == "" {
		practice = fol.Exists("o", fol.Pred("practice", bound(enc.actor, "d", "o"), bound(enc.action, "d", "o"), fol.Var("d"), fol.Var("o")))
	} else {
		practice = fol.Pred("practice", bound(enc.actor, "d"), bound(enc.action, "d"), fol.Var("d"), bound(enc.other, "d"))
	}
	negGoal := fol.Not(fol.Exists("d", fol.And(fol.Pred("subtype", fol.Var("d"), bound(enc.data, "d")), practice)))

	p.Commands = make([]smtlib.Command, 0, len(enc.goalChecks)+5)
	p.Commands = append(p.Commands,
		smtlib.Command{Kind: smtlib.CmdAssert, Formula: policy},
		smtlib.Command{Kind: smtlib.CmdPush, Levels: 1},
		smtlib.Command{Kind: smtlib.CmdAssert, Formula: negGoal})
	for _, c := range enc.goalChecks {
		cmd := smtlib.Command{Kind: smtlib.CmdCheckSat}
		if c.assume && len(enc.placeholders) > 0 {
			cmd.Assume = make([]*fol.Formula, len(enc.placeholders))
			for i, ph := range enc.placeholders {
				cmd.Assume[i] = fol.UninterpretedPred(ph)
				if c.mask&(1<<i) == 0 {
					cmd.Assume[i] = fol.Not(cmd.Assume[i])
				}
			}
		}
		p.Commands = append(p.Commands, cmd)
	}
	p.Commands = append(p.Commands,
		smtlib.Command{Kind: smtlib.CmdPop, Levels: 1},
		smtlib.Command{Kind: smtlib.CmdCheckSat})
	return p
}

// symbols sanitizes a question's terms and conditions, each distinct
// one once.
type symbols struct {
	terms, conds map[string]string
	// list holds each term's symbol, in the order first sanitized.
	list []string
}

// of returns sym(term).
func (s *symbols) of(term string) string {
	if v, ok := s.terms[term]; ok {
		return v
	}
	v := sym(term)
	s.terms[term] = v
	s.list = append(s.list, v)
	return v
}

// cond returns the placeholder predicate of a condition, condition's
// symbol prefixed "cond_".
func (s *symbols) cond(condition string) string {
	if v, ok := s.conds[condition]; ok {
		return v
	}
	if s.conds == nil {
		s.conds = map[string]string{}
	}
	var buf [64]byte
	v := string(appendSym(append(buf[:0], "cond_"...), condition))
	s.conds[condition] = v
	return v
}

// sym sanitizes a term into an SMT-LIB simple symbol, which prints
// unquoted: the term lowercased, its ASCII letters and digits kept, each
// space, hyphen, apostrophe and slash turned into '_', every other
// character dropped, and "t_" prefixed when that leaves it empty or
// starting with a digit; "unknown" for the empty term. A term that is
// already such a symbol is returned as it is.
func sym(s string) string {
	if s == "" {
		return "unknown"
	}
	clean := s[0] < '0' || s[0] > '9'
	for i := 0; i < len(s) && clean; i++ {
		c := s[i]
		clean = c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
	}
	if clean {
		return s
	}
	var buf [64]byte
	return string(appendSym(buf[:0], s))
}

// appendSym appends sym(s) to dst.
func appendSym(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, "unknown"...)
	}
	start := len(dst)
	dst = append(dst, "t_"...)
	for i := 0; i < len(s); {
		r := rune(s[i])
		switch {
		case r >= utf8.RuneSelf:
			var size int
			r, size = utf8.DecodeRuneInString(s[i:])
			r = unicode.ToLower(r)
			i += size
		case 'A' <= r && r <= 'Z':
			r += 'a' - 'A'
			i++
		default:
			i++
		}
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			dst = append(dst, byte(r))
		case r == ' ' || r == '-' || r == '\'' || r == '/':
			dst = append(dst, '_')
		}
	}
	if body := dst[start+2:]; len(body) > 0 && (body[0] < '0' || body[0] > '9') {
		return append(dst[:start], body...) // no prefix: copy the body down
	}
	return dst
}
