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
	facts = append(facts, e.referenceSubtypeFacts(terms)...)
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
	checks, _ := askGoals(len(placeholders))
	script, err := referenceCompile(policy, negGoal, referenceGoals(placeholders, checks))
	if err != nil {
		t.Fatal(err)
	}
	return runScript(t, script, e.Limits)
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

// replay solves a decoded script's commands on one solver under the
// strategy, as smt.RunScript solves them under the default.
func replay(prob *smtlib.Problem, strategy smt.InstStrategy, lim smt.Limits) []smt.Result {
	s := smt.NewSolver()
	s.Limits = lim
	s.Strategy = strategy
	var out []smt.Result
	for _, cmd := range prob.Commands {
		switch cmd.Kind {
		case smtlib.CmdAssert:
			s.Assert(cmd.Formula)
		case smtlib.CmdPush:
			for i := 0; i < cmd.Levels; i++ {
				s.Push()
			}
		case smtlib.CmdPop:
			for i := 0; i < cmd.Levels; i++ {
				s.Pop()
			}
		case smtlib.CmdCheckSat:
			out = append(out, s.CheckSatAssuming(cmd.Assume...))
		}
	}
	return out
}

// TestRelevantGroundingMatchesFullOnGrid is the differential test for the
// default strategy's skip rule on the pipeline's own scripts. Over the
// question grid of 50 corpus policies plus the contradiction fixture, the
// problem built for each script equals the one parsed from its text, and
// every check (main, assuming the placeholders, policy alone)
// answers with the same status, reason and model under the default
// strategy as under FullGrounding; only the instances differ.
func TestRelevantGroundingMatchesFullOnGrid(t *testing.T) {
	ctx := context.Background()
	engines := append(corpusEngines(t, 50, 13), engineFor(t, contradictionPolicy))
	asked, fullInst, relevantInst := 0, 0, 0
	for i, e := range engines {
		questions := fixtureQuestions
		if i < len(engines)-1 {
			questions = questionGrid(engines[:len(engines)-1], i, 3)
		}
		for _, text := range questions {
			p, err := e.parseQuery(ctx, text)
			if err != nil {
				continue // the extractor found no flow
			}
			res, err := e.AskParams(ctx, p)
			if err != nil {
				t.Fatalf("%q: %v", text, err)
			}
			q, err := e.resolve(ctx, p, map[string]string{})
			if err != nil {
				t.Fatal(err)
			}
			enc, err := e.encode(q, q.edges, askGoals)
			if err != nil {
				t.Fatal(err)
			}
			if enc.script != res.Script {
				t.Fatalf("%q: re-encoded script differs from the served one", text)
			}
			compiled := enc.problem()
			parsed, err := smtlib.DecodeScript(enc.script)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(compiled, parsed) {
				t.Fatalf("%q: the problem built for the script differs from its text's", text)
			}
			full := replay(parsed, smt.FullGrounding, e.Limits)
			relevant := replay(compiled, smt.RelevantGrounding, e.Limits)
			for c := range full {
				f, r := full[c], relevant[c]
				if f.Status != r.Status || f.Reason != r.Reason || !reflect.DeepEqual(f.Model, r.Model) {
					t.Errorf("policy %d %q check %d: relevant %v %q %v, full %v %q %v",
						i, text, c, r.Status, r.Reason, r.Model, f.Status, f.Reason, f.Model)
				}
			}
			if relevant[0].Status != res.SMT.Status {
				t.Errorf("%q: replayed main check %v, served %v", text, relevant[0].Status, res.SMT.Status)
			}
			asked++
			fullInst += full[0].Stats.Instantiations
			relevantInst += relevant[0].Stats.Instantiations
		}
	}
	t.Logf("%d questions: main-check instances full %d, relevant %d", asked, fullInst, relevantInst)
	if asked < 5*len(engines) {
		t.Errorf("only %d questions asked", asked)
	}
}
