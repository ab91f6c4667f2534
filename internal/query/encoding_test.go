package query

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/smt"
	"github.com/privacy-quagmire/quagmire/internal/smtlib"
)

// paperAxioms are the quantified subtype axioms of the paper's encoding,
// built here independently of subtypeAxioms: reflexivity and
// ∀x,y,z. subtype(x,y) ∧ subtype(y,z) → subtype(x,z).
func paperAxioms() []*fol.Formula {
	return []*fol.Formula{
		fol.Forall("x", fol.Pred("subtype", fol.Var("x"), fol.Var("x"))),
		fol.Forall("x", fol.Forall("y", fol.Forall("z",
			fol.Implies(
				fol.And(
					fol.Pred("subtype", fol.Var("x"), fol.Var("y")),
					fol.Pred("subtype", fol.Var("y"), fol.Var("z")),
				),
				fol.Pred("subtype", fol.Var("x"), fol.Var("z")),
			)))),
	}
}

// paperFacts encodes edges the paper's way: practice facts, the closure's
// ground subtype facts over terms, and paperAxioms.
func paperFacts(e *Engine, edges []*graph.Edge, terms []string, placeholderSet map[string]bool) []*fol.Formula {
	facts := e.practiceFacts(edges, placeholderSet)
	facts = append(facts, e.subtypeFacts(terms)...)
	return append(facts, paperAxioms()...)
}

// paperScriptResults compiles a question under the paper's encoding into
// the script shape the engine serves (main check, the check assuming the
// placeholders, the policy alone) and returns each check's result.
func paperScriptResults(t *testing.T, e *Engine, q *resolved) []smt.Result {
	t.Helper()
	placeholderSet := map[string]bool{}
	policy := fol.And(paperFacts(e, q.edges, dataTermList(q.edges, q.data), placeholderSet)...)
	negGoal := fol.Not(queryGoal(q.actor, q.action, q.data, q.other))
	if e.SimplifyFOL {
		policy, negGoal = fol.Simplify(policy), fol.Simplify(negGoal)
	}
	placeholders := make([]string, 0, len(placeholderSet))
	for p := range placeholderSet {
		placeholders = append(placeholders, p)
	}
	sort.Strings(placeholders)
	goals, _ := askGoals(placeholders)
	script, err := smtlib.CompileQuery(policy, negGoal, goals, smtlib.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return runScript(t, script.String(), e.Limits)
}

func runScript(t *testing.T, script string, lim smt.Limits) []smt.Result {
	t.Helper()
	results, err := smt.RunScript(script, lim)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func statuses(results []smt.Result) []smt.Status {
	out := make([]smt.Status, len(results))
	for i, r := range results {
		out[i] = r.Status
	}
	return out
}

func instantiations(results []smt.Result) int {
	n := 0
	for _, r := range results {
		n += r.Stats.Instantiations
	}
	return n
}

// fixtureQuestions are the contradiction fixture's questions: the
// conflicting flow, the vaguely guarded flow and one the policy is silent
// on.
var fixtureQuestions = []string{
	"Does Acme share my email address with advertisers?",
	"Does Acme collect my location data?",
	"Does Acme sell my email address?",
}

// TestClosureFactsMatchPaperEncoding is the differential test for
// dropping the transitivity axiom. The reference is the paper's encoding
// (closure facts, reflexivity and transitivity) built above; the engine
// serves closure facts and reflexivity alone. Over 50 corpus policies'
// question grid plus the contradiction fixture, the main, conditional and
// policy-alone checks answer with identical statuses on every question.
func TestClosureFactsMatchPaperEncoding(t *testing.T) {
	ctx := context.Background()
	engines := corpusEngines(t, 50, 13)
	fixture := engineFor(t, contradictionPolicy)
	questions := func(i int) []string {
		if i == len(engines) {
			return fixtureQuestions
		}
		return questionGrid(engines, i, 3)
	}
	engineAt := func(i int) *Engine {
		if i == len(engines) {
			return fixture
		}
		return engines[i]
	}

	asked, paperInst, servedInst := 0, 0, 0
	for i := 0; i <= len(engines); i++ {
		e := engineAt(i)
		for _, text := range questions(i) {
			p, err := e.parseQuery(ctx, text)
			if err != nil {
				continue // the extractor found no flow
			}
			res, err := e.AskParams(ctx, p)
			if err != nil {
				t.Fatalf("%q: %v", text, err)
			}
			served := runScript(t, res.Script, e.Limits)
			if served[0].Status != res.SMT.Status {
				t.Fatalf("%q: replayed script says %s, engine %s", text, served[0].Status, res.SMT.Status)
			}
			q, err := e.resolve(ctx, p, map[string]string{})
			if err != nil {
				t.Fatal(err)
			}
			paper := paperScriptResults(t, e, q)
			if got, want := statuses(served), statuses(paper); !reflect.DeepEqual(got, want) {
				t.Errorf("policy %d %q: closure facts %v, paper encoding %v", i, text, got, want)
			}
			asked++
			paperInst += instantiations(paper)
			servedInst += instantiations(served)
		}
	}
	t.Logf("subgraph mode: %d questions, instantiations paper %d, closure facts %d", asked, paperInst, servedInst)
	if asked < 5*len(engines) {
		t.Errorf("only %d questions asked", asked)
	}
	if servedInst >= paperInst {
		t.Errorf("closure facts ground %d instances, paper encoding %d: the axiom did not go", servedInst, paperInst)
	}
}
