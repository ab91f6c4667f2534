package query

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/smt"
	"github.com/privacy-quagmire/quagmire/internal/taxonomy"
)

// contradictionPolicy allows and denies the same flow outright, and
// guards a second flow with a vague condition.
const contradictionPolicy = `Acme Privacy Policy

Acme ("we", "us") provides this policy.

We share your email address with advertisers.

We do not share your email address with advertisers.

We collect your location data when required by law.
`

// engineFor analyzes a policy text into a query engine.
func engineFor(t *testing.T, text string) *Engine {
	t.Helper()
	sim := llm.NewSim()
	ex, err := extract.New(sim).ExtractPolicy(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kg.NewBuilder(&taxonomy.Builder{Client: sim}).Build(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(k, sim, embed.NewModel("text-embedding-sim"))
}

// refOutcome is the reference path's verdict and the fields the engine
// derives alongside it.
type refOutcome struct {
	verdict       Verdict
	status        smt.Status
	conditionalOn []string
	contradiction bool
	formula       string
	formulaSize   int
}

// referenceAsk answers a question the way the pipeline did when each
// check built its own solver: policy ∧ ¬goal on a fresh solver; after
// sat, the formula plus every placeholder
// condition on a fresh solver (check-sat-assuming then clausified its
// assumptions together with the assertions, as asserting them here does);
// after unsat, the policy axioms alone — without the query's data term —
// on a fresh solver.
func referenceAsk(ctx context.Context, e *Engine, p llm.ParamSet) (refOutcome, error) {
	q, err := e.resolve(ctx, p, map[string]string{})
	if err != nil {
		return refOutcome{}, err
	}
	formula, placeholders := wholeFormula(e, q.edges, q)
	if e.SimplifyFOL {
		formula = fol.Simplify(formula)
	}
	fresh := func(fs ...*fol.Formula) smt.Status {
		s := smt.NewSolver()
		s.Limits = e.Limits
		for _, f := range fs {
			s.Assert(f)
		}
		return s.CheckSat().Status
	}
	out := refOutcome{status: fresh(formula), verdict: Unknown, formula: formula.String(), formulaSize: formula.Size()}
	switch out.status {
	case smt.Unsat:
		out.verdict = Valid
		axioms, _ := wholeFormula(e, q.edges, &resolved{})
		if fresh(axioms.Sub[0]) == smt.Unsat {
			out.verdict, out.contradiction = Unknown, true
		}
	case smt.Sat:
		out.verdict = Invalid
		if len(placeholders) > 0 {
			fs := []*fol.Formula{formula}
			for _, ph := range placeholders {
				fs = append(fs, fol.UninterpretedPred(ph))
			}
			if fresh(fs...) == smt.Unsat {
				out.verdict, out.conditionalOn = Valid, placeholders
			}
		}
	}
	return out, nil
}

// wholeFormula encodes q over edges as one formula asserting
// policy ∧ ¬goal, so unsat ⇔ the query follows from the policy.
func wholeFormula(e *Engine, edges []*graph.Edge, q *resolved) (*fol.Formula, []string) {
	policy, goal, placeholders := e.buildParts(edges, q.actor, q.action, q.data, q.other)
	return fol.And(policy, fol.Not(goal)), placeholders
}

// checkAgainstReference asks one question through the engine and the
// reference and reports any difference.
func checkAgainstReference(t *testing.T, e *Engine, q string) (*Result, bool) {
	t.Helper()
	ctx := context.Background()
	p, err := e.parseQuery(ctx, q)
	if err != nil {
		return nil, false // the extractor found no flow
	}
	got, err := e.AskParams(ctx, p)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	want, err := referenceAsk(ctx, e, p)
	if err != nil {
		t.Fatalf("%q: reference: %v", q, err)
	}
	if got.Verdict != want.verdict || got.SMT.Status != want.status ||
		got.Contradiction != want.contradiction || !reflect.DeepEqual(got.ConditionalOn, want.conditionalOn) {
		t.Errorf("%q: engine %s/%s conditional=%v contradiction=%v, reference %s/%s conditional=%v contradiction=%v",
			q, got.Verdict, got.SMT.Status, got.ConditionalOn, got.Contradiction,
			want.verdict, want.status, want.conditionalOn, want.contradiction)
	}
	if got.Formula != want.formula || got.FormulaSize != want.formulaSize {
		t.Errorf("%q: engine formula (size %d) %s\nreference (size %d) %s", q, got.FormulaSize, got.Formula, want.formulaSize, want.formula)
	}
	return got, true
}

// TestOneCoreMatchesFreshSolvers is the differential test for running a
// question's main, conditional and policy-alone checks on one ground
// core: over generated policies and questions derived from their own
// edges, every verdict, condition list, contradiction flag, main SMT
// status and reported formula equals the reference's.
func TestOneCoreMatchesFreshSolvers(t *testing.T) {
	const policies, perKind = 50, 3
	engines := corpusEngines(t, policies, 13)
	asked := 0
	branch := map[string]int{}
	for i, e := range engines {
		for _, q := range questionGrid(engines, i, perKind) {
			got, ok := checkAgainstReference(t, e, q)
			if !ok {
				continue
			}
			asked++
			switch {
			case got.Contradiction:
				branch["contradiction"]++
			case len(got.ConditionalOn) > 0:
				branch["conditional"]++
			default:
				branch[string(got.Verdict)]++
			}
		}
	}
	t.Logf("%d questions over %d policies: %v", asked, len(engines), branch)
	if asked < 5*policies {
		t.Errorf("only %d questions asked", asked)
	}
	for _, b := range []string{"conditional", string(Valid), string(Invalid)} {
		if branch[b] == 0 {
			t.Errorf("no question took the %s branch: %v", b, branch)
		}
	}
}

// corpusEngines analyzes n generated policies into query engines.
func corpusEngines(t *testing.T, n int, seed int64) []*Engine {
	t.Helper()
	dir := t.TempDir()
	names, err := corpus.WriteCorpus(dir, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, len(names))
	for i, name := range names {
		text, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = engineFor(t, string(text))
	}
	return engines
}

// questionGrid derives up to perKind questions of each kind for
// engines[i] from the graphs' own edges: the full flow, the flow without
// its receiver, and the company's verbs over the next policy's data
// types.
func questionGrid(engines []*Engine, i, perKind int) []string {
	e := engines[i]
	company, flows := e.KG.Company, ownFlows(e)
	var withRecv, noRecv, swapped []string
	own := map[string]bool{}
	for _, ed := range flows {
		own[ed.To] = true
		if ed.Other != "" && ed.Other != "user" {
			withRecv = append(withRecv, fmt.Sprintf("Does %s %s my %s with %s?", company, ed.Label, ed.To, ed.Other))
		}
		noRecv = append(noRecv, fmt.Sprintf("Does %s %s my %s?", company, ed.Label, ed.To))
	}
	for _, ed := range ownFlows(engines[(i+1)%len(engines)]) {
		if !own[ed.To] && len(flows) > 0 {
			swapped = append(swapped, fmt.Sprintf("Does %s %s my %s?", company, flows[len(swapped)%len(flows)].Label, ed.To))
		}
	}
	var qs []string
	for _, kind := range [][]string{withRecv, noRecv, swapped} {
		qs = append(qs, kind[:min(perKind, len(kind))]...)
	}
	return qs
}

// ownFlows returns the company's own outbound edges.
func ownFlows(e *Engine) []*graph.Edge {
	var out []*graph.Edge
	for _, ed := range e.KG.ED.Edges() {
		if strings.EqualFold(ed.From, e.KG.Company) && ed.Label != "" && ed.To != "" {
			out = append(out, ed)
		}
	}
	return out
}

// TestContradictionFixture reaches all three verdict branches on one
// policy: an outright allow/deny conflict is UNKNOWN with the
// contradiction flag, and a vaguely guarded flow is VALID conditional on
// its placeholder — each agreeing with the fresh-solver reference.
func TestContradictionFixture(t *testing.T) {
	e := engineFor(t, contradictionPolicy)
	got, ok := checkAgainstReference(t, e, "Does Acme share my email address with advertisers?")
	if !ok {
		t.Fatal("question did not parse")
	}
	if got.Verdict != Unknown || !got.Contradiction || got.Cause != CauseContradiction || got.SMT.Status != smt.Unsat {
		t.Errorf("conflicting flow: verdict %s, contradiction %v, cause %q, smt %s; want UNKNOWN, true, %q, unsat",
			got.Verdict, got.Contradiction, got.Cause, got.SMT.Status, CauseContradiction)
	}
	got, ok = checkAgainstReference(t, e, "Does Acme collect my location data?")
	if !ok {
		t.Fatal("question did not parse")
	}
	if got.Verdict != Valid || !reflect.DeepEqual(got.ConditionalOn, []string{"cond_required_by_law"}) || got.SMT.Status != smt.Sat {
		t.Errorf("guarded flow: verdict %s, conditional on %v, smt %s; want VALID on [cond_required_by_law], sat",
			got.Verdict, got.ConditionalOn, got.SMT.Status)
	}
}
