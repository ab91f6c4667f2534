package query

import (
	"context"
	"fmt"

	"github.com/privacy-quagmire/quagmire/internal/llm"
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
	// Cause says why Verdict is UNKNOWN, as Result.Cause does.
	Cause string `json:"cause,omitempty"`
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
// vague placeholder conditions with one script on one ground core: a
// check-sat-assuming per scenario, then the policy alone, so every
// scenario gets its verdict from Decide, the rule Ask uses. A policy that
// contradicts itself makes every scenario UNKNOWN with cause
// CauseContradiction.
func (e *Engine) ExploreConditions(ctx context.Context, p llm.ParamSet) (*Exploration, error) {
	q, err := e.resolve(ctx, p, map[string]string{})
	if err != nil {
		return nil, err
	}
	enc, results, err := e.check(ctx, q, q.edges, scenarioGoals)
	if err != nil {
		return nil, err
	}
	alone := results[len(results)-1]
	exp := &Exploration{Placeholders: enc.placeholders, AlwaysValid: true, NeverValid: true}
	for mask, res := range results[:len(results)-1] {
		sc := Scenario{Assumptions: map[string]bool{}, Stats: res.Stats}
		for i, ph := range enc.placeholders {
			sc.Assumptions[ph] = mask&(1<<i) != 0
		}
		sc.Verdict, sc.Cause, _ = Decide([]smt.Result{res, alone})
		exp.AlwaysValid = exp.AlwaysValid && sc.Verdict == Valid
		exp.NeverValid = exp.NeverValid && sc.Verdict != Valid
		exp.Scenarios = append(exp.Scenarios, sc)
	}
	return exp, nil
}

// scenarioGoals are Explore's goal checks: one per interpretation of the
// placeholders, the scenario's index as its mask.
func scenarioGoals(n int) ([]goalCheck, error) {
	if n > MaxExplorePlaceholders {
		return nil, fmt.Errorf("query: %d placeholders exceed exploration cap %d", n, MaxExplorePlaceholders)
	}
	goals := make([]goalCheck, 1<<n)
	for mask := range goals {
		goals[mask] = goalCheck{assume: true, mask: mask}
	}
	return goals, nil
}
