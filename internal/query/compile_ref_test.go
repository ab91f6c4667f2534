package query

import (
	"fmt"
	"sort"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/smtlib"
)

// The reference encoding: how the engine encoded and compiled a question
// before its script was written in one pass (script.go). The policy and
// goal are built as FOL formulas (buildParts), simplified with
// fol.Simplify when the engine simplifies, and compiled with the
// s-expression compiler below; its text and the problem its text decodes
// to are what the writer must reproduce.

// referenceEncoding is what the reference path reports for a question.
type referenceEncoding struct {
	script       string
	formula      string
	formulaSize  int
	placeholders []string
}

// referenceEncode encodes the question over edges with the goal checks
// goals lists, the way encode did before the writer.
func referenceEncode(e *Engine, q *resolved, edges []*graph.Edge, goals goalsFunc) (*referenceEncoding, error) {
	policy, goal, placeholders := e.buildParts(edges, q.actor, q.action, q.data, q.other)
	negGoal := fol.Not(goal)
	if e.SimplifyFOL {
		policy, negGoal = fol.Simplify(policy), fol.Simplify(negGoal)
	}
	checks, err := goals(len(placeholders))
	if err != nil {
		return nil, err
	}
	script, err := referenceCompile(policy, negGoal, referenceGoals(placeholders, checks))
	if err != nil {
		return nil, err
	}
	formula := fol.And(policy, negGoal)
	if e.SimplifyFOL {
		formula = conjoin(policy, negGoal)
	}
	return &referenceEncoding{script: script, formula: formula.String(), formulaSize: formula.Size(), placeholders: placeholders}, nil
}

// referenceGoals turns goal checks into the assumed literal sets the
// compiler takes: none for a plain check, otherwise every placeholder,
// negated where its bit in the mask is clear.
func referenceGoals(placeholders []string, checks []goalCheck) [][]*fol.Formula {
	sets := make([][]*fol.Formula, len(checks))
	for i, c := range checks {
		if !c.assume {
			continue
		}
		sets[i] = make([]*fol.Formula, len(placeholders))
		for j, ph := range placeholders {
			sets[i][j] = fol.UninterpretedPred(ph)
			if c.mask&(1<<j) == 0 {
				sets[i][j] = fol.Not(sets[i][j])
			}
		}
	}
	return sets
}

// referenceSym is sym as it was: lowercase, keep ASCII letters and
// digits, turn spaces, hyphens, apostrophes and slashes into '_', drop
// the rest, and prefix "t_" when that leaves nothing or a leading digit.
func referenceSym(s string) string {
	if s == "" {
		return "unknown"
	}
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '\'' || r == '/':
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" || out[0] >= '0' && out[0] <= '9' {
		out = "t_" + out
	}
	return out
}

// condSym builds the uninterpreted predicate name for a condition.
func condSym(cond string) string { return "cond_" + referenceSym(cond) }

// buildParts encodes the subgraph and query per §3: policy statements
// become implications/facts over a practice predicate, the hierarchy
// contributes ground subtype facts plus reflexivity, conditions become
// boolean predicates (vague ones uninterpreted, returned sorted as
// placeholders), and the query becomes an existentially quantified goal.
func (e *Engine) buildParts(edges []*graph.Edge, actor, action, data, other string) (policy, goal *fol.Formula, placeholders []string) {
	placeholderSet := map[string]bool{}
	axioms := e.practiceFacts(edges, placeholderSet)
	axioms = append(axioms, e.referenceSubtypeFacts(dataTermList(edges, data))...)
	axioms = append(axioms, subtypeAxioms()...)

	placeholders = make([]string, 0, len(placeholderSet))
	for p := range placeholderSet {
		placeholders = append(placeholders, p)
	}
	sort.Strings(placeholders)
	return fol.And(axioms...), queryGoal(actor, action, data, other), placeholders
}

// practiceFacts encodes the edges' policy statements as
// practice(actor, action, data, other) facts, negated for denials and
// guarded by uninterpreted condition predicates (recorded in
// placeholderSet) when vague.
func (e *Engine) practiceFacts(edges []*graph.Edge, placeholderSet map[string]bool) []*fol.Formula {
	var facts []*fol.Formula
	for _, ed := range edges {
		otherTerm := ed.Other
		if otherTerm == "" {
			otherTerm = ed.From
		}
		atom := fol.Pred("practice",
			fol.Const(referenceSym(ed.From)),
			fol.Const(referenceSym(ed.Label)),
			fol.Const(referenceSym(ed.To)),
			fol.Const(referenceSym(otherTerm)),
		)
		var fact *fol.Formula = atom
		if ed.Permission == "deny" {
			fact = fol.Not(atom)
		}
		if ed.Condition != "" {
			cond := fol.UninterpretedPred(condSym(ed.Condition))
			placeholderSet[condSym(ed.Condition)] = true
			fact = fol.Implies(cond, fact)
		}
		facts = append(facts, fact)
	}
	return facts
}

// dataTermList collects the data types seen in the subgraph plus the query
// data term, sorted.
func dataTermList(edges []*graph.Edge, data string) []string {
	terms := map[string]bool{}
	if data != "" {
		terms[data] = true
	}
	for _, ed := range edges {
		terms[ed.To] = true
	}
	termList := make([]string, 0, len(terms))
	for t := range terms {
		termList = append(termList, t)
	}
	sort.Strings(termList)
	return termList
}

// referenceSubtypeFacts emits a ground subtype(a, b) fact for every term a
// of the sorted term list and each ancestor b of a in the list, in list
// order (empty under NoHierarchy — ablation A1).
func (e *Engine) referenceSubtypeFacts(termList []string) []*fol.Formula {
	if e.NoHierarchy {
		return nil
	}
	var facts []*fol.Formula
	for _, a := range termList {
		var above []string
		for b, ok := e.KG.DataH.Parent(a); ok; b, ok = e.KG.DataH.Parent(b) {
			if i := sort.SearchStrings(termList, b); i < len(termList) && termList[i] == b {
				above = append(above, b)
			}
		}
		sort.Strings(above)
		for _, b := range above {
			facts = append(facts, fol.Pred("subtype", fol.Const(referenceSym(a)), fol.Const(referenceSym(b))))
		}
	}
	return facts
}

// subtypeAxioms returns reflexivity of subtype, the one quantified axiom
// of the encoding.
func subtypeAxioms() []*fol.Formula {
	return []*fol.Formula{
		fol.Forall("x", fol.Pred("subtype", fol.Var("x"), fol.Var("x"))),
	}
}

// queryGoal is the query encoding:
// ∃d. subtype(d, data) ∧ practice(actor, action, d, other').
// When the query names a receiver, it must match; otherwise any
// counterparty witnesses the practice.
func queryGoal(actor, action, data, other string) *fol.Formula {
	goalPractice := func(d fol.Term) *fol.Formula {
		if other != "" {
			return fol.Pred("practice", fol.Const(referenceSym(actor)), fol.Const(referenceSym(action)), d, fol.Const(referenceSym(other)))
		}
		return fol.Exists("o", fol.Pred("practice", fol.Const(referenceSym(actor)), fol.Const(referenceSym(action)), d, fol.Var("o")))
	}
	return fol.Exists("d", fol.And(
		fol.Pred("subtype", fol.Var("d"), fol.Const(referenceSym(data))),
		goalPractice(fol.Var("d")),
	))
}

// conjoin returns policy ∧ negGoal for simplified parts, flattened as
// fol.Simplify flattens a conjunction.
func conjoin(policy, negGoal *fol.Formula) *fol.Formula {
	switch policy.Op {
	case fol.OpTrue:
		return negGoal
	case fol.OpFalse:
		return policy
	case fol.OpAnd:
		return fol.And(append(append([]*fol.Formula(nil), policy.Sub...), negGoal)...)
	}
	return fol.And(policy, negGoal)
}

// referenceCompile is smtlib's CompileQuery as the engine called it: the
// source comment, the sort, the formulas' constants and then predicates
// in sorted order (a placeholder tagged before its declaration), the
// policy, the negated goal under a push, one check per literal set, and
// the policy-alone check, printed one command a line.
func referenceCompile(policy, negGoal *fol.Formula, goals [][]*fol.Formula) (string, error) {
	all := []*fol.Formula{policy, negGoal}
	for _, lits := range goals {
		all = append(all, lits...)
	}
	sig, err := referenceSignature(fol.And(all...))
	if err != nil {
		return "", err
	}
	var cmds []*smtlib.SExpr
	add := func(items ...*smtlib.SExpr) { cmds = append(cmds, list(items...)) }
	add(atom("set-logic"), atom("UF"))
	add(atom("set-option"), atom(":produce-models"), atom("true"))
	add(atom("set-info"), atom(":source"), atom(`"privacy query verification"`))
	add(atom("declare-sort"), atom("U"), atom("0"))
	for _, c := range sortedNames(sig.consts) {
		add(atom("declare-const"), atom(c), atom("U"))
	}
	for _, p := range sortedNames(sig.preds) {
		if sig.uninterpreted[p] {
			add(atom("set-info"), atom(":uninterpreted-placeholder"), atom(p))
		}
		args := make([]*smtlib.SExpr, sig.preds[p])
		for i := range args {
			args[i] = atom("U")
		}
		add(atom("declare-fun"), atom(p), list(args...), atom("Bool"))
	}
	add(atom("assert"), formulaSExpr(policy))
	add(atom("push"), atom("1"))
	add(atom("assert"), formulaSExpr(negGoal))
	for _, lits := range goals {
		if len(lits) == 0 {
			add(atom("check-sat"))
			continue
		}
		exprs := make([]*smtlib.SExpr, len(lits))
		for i, lit := range lits {
			exprs[i] = formulaSExpr(lit)
		}
		add(atom("check-sat-assuming"), list(exprs...))
	}
	add(atom("pop"), atom("1"))
	add(atom("check-sat"))
	var b strings.Builder
	for _, c := range cmds {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func atom(s string) *smtlib.SExpr { return &smtlib.SExpr{Atom: s} }

func list(items ...*smtlib.SExpr) *smtlib.SExpr {
	if items == nil {
		items = []*smtlib.SExpr{}
	}
	return &smtlib.SExpr{List: items}
}

// formulaSExpr is smtlib's FormulaToSExpr for the encoding's formulas:
// predicates over constants and variables, connectives and quantifiers
// over the one sort U.
func formulaSExpr(f *fol.Formula) *smtlib.SExpr {
	switch f.Op {
	case fol.OpTrue:
		return atom("true")
	case fol.OpFalse:
		return atom("false")
	case fol.OpPred:
		if len(f.Terms) == 0 {
			return atom(f.Pred)
		}
		items := []*smtlib.SExpr{atom(f.Pred)}
		for _, t := range f.Terms {
			items = append(items, atom(t.Name))
		}
		return list(items...)
	case fol.OpNot:
		return list(atom("not"), formulaSExpr(f.Sub[0]))
	case fol.OpAnd, fol.OpOr:
		op := "and"
		if f.Op == fol.OpOr {
			op = "or"
		}
		items := []*smtlib.SExpr{atom(op)}
		for _, s := range f.Sub {
			items = append(items, formulaSExpr(s))
		}
		return list(items...)
	case fol.OpImplies:
		return list(atom("=>"), formulaSExpr(f.Sub[0]), formulaSExpr(f.Sub[1]))
	case fol.OpForall, fol.OpExists:
		op := "forall"
		if f.Op == fol.OpExists {
			op = "exists"
		}
		return list(atom(op), list(list(atom(f.Bound), atom("U"))), formulaSExpr(f.Sub[0]))
	}
	panic(fmt.Sprintf("reference compiler: op %v outside the encoding", f.Op))
}

// referenceSig is the signature CompileQuery declared: the constants, and
// the predicates with their arities, the uninterpreted ones marked.
type referenceSig struct {
	consts        map[string]int
	preds         map[string]int
	uninterpreted map[string]bool
}

// referenceSignature is fol.SignatureOf for the encoding's formulas,
// which apply no functions; a predicate used with two arities is an
// error, as it was.
func referenceSignature(f *fol.Formula) (*referenceSig, error) {
	sig := &referenceSig{consts: map[string]int{}, preds: map[string]int{}, uninterpreted: map[string]bool{}}
	var walk func(g *fol.Formula) error
	walk = func(g *fol.Formula) error {
		if g.Op == fol.OpPred {
			if a, ok := sig.preds[g.Pred]; ok && a != len(g.Terms) {
				return fmt.Errorf("predicate %q used with arities %d and %d", g.Pred, a, len(g.Terms))
			}
			sig.preds[g.Pred] = len(g.Terms)
			if g.Uninterpreted {
				sig.uninterpreted[g.Pred] = true
			}
		}
		for _, t := range g.Terms {
			if t.Kind == fol.TermConst {
				sig.consts[t.Name] = 0
			}
		}
		for _, s := range g.Sub {
			if err := walk(s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(f); err != nil {
		return nil, err
	}
	return sig, nil
}

func sortedNames(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
