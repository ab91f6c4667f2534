package query

import (
	"context"
	"fmt"

	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// Explanation is the minimal evidence for a VALID verdict: a subset of
// policy edges that still entails the query (a deletion-minimized unsat
// core over the practice facts). Legal reviewers get exactly the
// statements that justify the answer.
type Explanation struct {
	// Verdict echoes the query outcome the explanation supports.
	Verdict Verdict `json:"verdict"`
	// Evidence lists the minimal edges, in the paper's edge notation.
	Evidence []string `json:"evidence"`
	// SolverCalls counts the minimization effort.
	SolverCalls int `json:"solver_calls"`
}

// ExplainValid minimizes the edge set supporting a VALID verdict by
// deletion: each edge is dropped in turn and the query re-checked; edges
// whose removal flips the verdict are essential. The whole subgraph is
// checked with Ask's script, so Explain starts from Ask's verdict, and
// shares Ask's cached results; it returns an error unless that verdict is
// an unconditional VALID. Every check stops at ctx's deadline.
func (e *Engine) ExplainValid(ctx context.Context, p llm.ParamSet) (*Explanation, error) {
	q, err := e.resolve(ctx, p, map[string]string{})
	if err != nil {
		return nil, err
	}
	calls := 0
	checkEdges := func(edges []*graph.Edge, goals goalsFunc) ([]smt.Result, error) {
		calls++
		_, results, err := e.check(ctx, q, edges, goals)
		return results, err
	}

	results, err := checkEdges(q.edges, askGoals)
	if err != nil {
		return nil, err
	}
	if v, cause, conditional := Decide(results); v != Valid || conditional {
		return nil, fmt.Errorf("query: verdict is %s (cause %q, conditional %v); nothing to explain", v, cause, conditional)
	}

	// Deletion-based minimization: drop edges one at a time; keep the
	// drop when the entailment survives. A subset of a policy that does
	// not contradict itself does not either, so the main check decides.
	core := append([]*graph.Edge(nil), q.edges...)
	for i := 0; i < len(core); {
		candidate := make([]*graph.Edge, 0, len(core)-1)
		candidate = append(candidate, core[:i]...)
		candidate = append(candidate, core[i+1:]...)
		results, err := checkEdges(candidate, mainGoal)
		if err != nil {
			return nil, err
		}
		switch v, cause, _ := Decide(results); v {
		case Valid:
			core = candidate // edge i was inessential
		case Invalid:
			i++ // edge i is essential
		default:
			return nil, fmt.Errorf("query: explanation solve gave up (%s)", cause)
		}
	}
	exp := &Explanation{Verdict: Valid, SolverCalls: calls}
	for _, ed := range core {
		exp.Evidence = append(exp.Evidence, ed.String())
	}
	return exp, nil
}

// mainGoal is the main check alone: does the goal follow with no
// condition assumed?
func mainGoal(int) ([]goalCheck, error) { return []goalCheck{{}}, nil }

// ExplainQuestion parses a natural-language query and runs ExplainValid.
func (e *Engine) ExplainQuestion(ctx context.Context, question string) (*Explanation, error) {
	p, err := e.parseQuery(ctx, question)
	if err != nil {
		return nil, err
	}
	return e.ExplainValid(ctx, p)
}
