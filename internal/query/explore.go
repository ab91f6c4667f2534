package query

import (
	"context"
	"fmt"
	"sort"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// Scenario is one interpretation of the vague placeholder conditions and
// the verdict the query receives under it.
type Scenario struct {
	// Assumptions maps each placeholder condition to the truth value
	// assumed in this scenario.
	Assumptions map[string]bool `json:"assumptions"`
	// Verdict is the query outcome under the assumptions.
	Verdict Verdict `json:"verdict"`
	// Stats reports the scenario's solver effort. All scenarios share one
	// ground core, so only the first grounds the formula.
	Stats smt.Stats `json:"-"`
}

// Exploration is the result of enumerating vague-condition
// interpretations for one query — the paper's proposed use of
// check-sat-assuming: "exploration of different query conditions without
// full re-solving".
type Exploration struct {
	// Placeholders are the vague conditions being explored, sorted.
	Placeholders []string `json:"placeholders"`
	// Scenarios holds one entry per interpretation (2^n for n
	// placeholders, capped by MaxExplorePlaceholders).
	Scenarios []Scenario `json:"scenarios"`
	// AlwaysValid and NeverValid summarize the exploration.
	AlwaysValid bool `json:"always_valid"`
	// NeverValid reports that no interpretation makes the query follow.
	NeverValid bool `json:"never_valid"`
}

// MaxExplorePlaceholders caps the exponential scenario enumeration.
const MaxExplorePlaceholders = 6

// Explore parses a natural-language query and runs ExploreConditions.
func (e *Engine) Explore(ctx context.Context, question string) (*Exploration, error) {
	p, err := e.parseQuery(ctx, question)
	if err != nil {
		return nil, err
	}
	return e.ExploreConditions(ctx, p)
}

// ExploreConditions answers the query under every interpretation of its
// vague placeholder conditions, reusing one incremental solver (assert the
// formula once, check-sat-assuming per scenario) instead of re-solving
// from scratch.
func (e *Engine) ExploreConditions(ctx context.Context, p llm.ParamSet) (*Exploration, error) {
	// Build the formula exactly as AskParams does.
	actorRole, otherRole := llm.FlowRoles(p)
	trans := map[string]string{}
	actor, err := e.translate(ctx, actorRole, trans)
	if err != nil {
		return nil, err
	}
	data, err := e.translate(ctx, p.DataType, trans)
	if err != nil {
		return nil, err
	}
	other := ""
	if otherRole != "" && otherRole != actorRole && otherRole != "user" {
		if other, err = e.translate(ctx, otherRole, trans); err != nil {
			return nil, err
		}
	}
	edges := e.relevantEdges(actor, nlp.VerbBase(p.Action), data, other)
	formula, placeholders := e.buildFormula(edges, actor, nlp.VerbBase(p.Action), data, other)
	if e.SimplifyFOL {
		formula = fol.Simplify(formula)
	}
	if len(placeholders) > MaxExplorePlaceholders {
		return nil, fmt.Errorf("query: %d placeholders exceed exploration cap %d", len(placeholders), MaxExplorePlaceholders)
	}
	sort.Strings(placeholders)

	solver := smt.NewSolver()
	solver.Limits = e.Limits
	solver.Assert(formula)

	exp := &Exploration{Placeholders: placeholders, AlwaysValid: true, NeverValid: true}
	n := 1 << len(placeholders)
	for mask := 0; mask < n; mask++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		assumptions := make([]*fol.Formula, len(placeholders))
		values := map[string]bool{}
		for i, ph := range placeholders {
			atom := fol.UninterpretedPred(ph)
			if mask&(1<<i) != 0 {
				assumptions[i] = atom
				values[ph] = true
			} else {
				assumptions[i] = fol.Not(atom)
				values[ph] = false
			}
		}
		res := solver.CheckSatAssuming(assumptions...)
		verdict := Unknown
		switch res.Status {
		case smt.Unsat:
			verdict = Valid
		case smt.Sat:
			verdict = Invalid
		}
		if verdict != Valid {
			exp.AlwaysValid = false
		}
		if verdict == Valid {
			exp.NeverValid = false
		}
		exp.Scenarios = append(exp.Scenarios, Scenario{Assumptions: values, Verdict: verdict, Stats: res.Stats})
	}
	return exp, nil
}
