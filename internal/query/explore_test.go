package query

import (
	"context"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

func TestExploreConditions(t *testing.T) {
	eng := newEngine(t)
	// Usage-data sharing is guarded by the vague "legitimate business
	// purposes" condition: exactly the scenarios where it holds are VALID.
	exp, err := eng.ExploreConditions(context.Background(), llm.ParamSet{
		Sender: "TikTak", Action: "share", DataType: "usage data",
		Receiver: "service provider",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Placeholders) == 0 {
		t.Fatal("no placeholders to explore")
	}
	if len(exp.Scenarios) != 1<<len(exp.Placeholders) {
		t.Fatalf("scenarios = %d for %d placeholders", len(exp.Scenarios), len(exp.Placeholders))
	}
	if exp.AlwaysValid {
		t.Error("conditional query cannot be always-valid")
	}
	if exp.NeverValid {
		t.Error("conditional query cannot be never-valid")
	}
	// The all-true scenario must be VALID; the all-false scenario INVALID.
	for _, sc := range exp.Scenarios {
		allTrue, allFalse := true, true
		for _, v := range sc.Assumptions {
			if v {
				allFalse = false
			} else {
				allTrue = false
			}
		}
		if allTrue && sc.Verdict != Valid {
			t.Errorf("all-true scenario = %s", sc.Verdict)
		}
		if allFalse && sc.Verdict != Invalid {
			t.Errorf("all-false scenario = %s", sc.Verdict)
		}
	}
}

func TestExploreUnconditional(t *testing.T) {
	eng := newEngine(t)
	// The unconditional email-sharing practice: hmm, its subgraph may
	// still contain conditioned edges from neighbouring statements, but
	// the all-false scenario must remain VALID because the unconditional
	// edge suffices.
	exp, err := eng.ExploreConditions(context.Background(), llm.ParamSet{
		Sender: "TikTak", Action: "share", DataType: "email address",
		Receiver: "advertising partner",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !exp.AlwaysValid {
		t.Errorf("unconditional practice should be valid in every scenario: %+v", exp.Scenarios)
	}
}

func TestExploreCountermodelSurfaced(t *testing.T) {
	eng := newEngine(t)
	res, err := eng.AskParams(context.Background(), llm.ParamSet{
		Sender: "TikTak", Action: "share", DataType: "usage data",
		Receiver: "service provider",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The conditionally-valid result carries the placeholders; the raw
	// SMT result of the first (sat) solve is not exposed here, but the
	// ConditionalOn list names exactly the vague terms at play.
	if len(res.ConditionalOn) == 0 {
		t.Fatalf("expected conditional validity: %+v", res)
	}
}

// TestExploreGroundsOnce: the 2^n scenarios run check-sat-assuming on one
// solver, so only the first grounds the formula — every later scenario
// reports zero instantiations — and each scenario's verdict equals a
// fresh solver's on the formula plus that scenario's literals.
func TestExploreGroundsOnce(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	p := llm.ParamSet{Sender: "TikTak", Action: "share", DataType: "usage data", Receiver: "service provider"}
	exp, err := eng.ExploreConditions(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Scenarios) < 2 {
		t.Fatalf("scenarios = %d, want at least 2", len(exp.Scenarios))
	}
	if exp.Scenarios[0].Stats.Instantiations == 0 {
		t.Error("first scenario did not ground the formula")
	}
	for i, sc := range exp.Scenarios[1:] {
		if sc.Stats.Instantiations != 0 {
			t.Errorf("scenario %d re-grounded: %d instantiations", i+2, sc.Stats.Instantiations)
		}
	}

	q, err := eng.resolve(ctx, p, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	formula, _ := wholeFormula(eng, q.edges, q)
	formula = fol.Simplify(formula)
	for _, sc := range exp.Scenarios {
		s := smt.NewSolver()
		s.Assert(formula)
		for ph, v := range sc.Assumptions {
			lit := fol.UninterpretedPred(ph)
			if !v {
				lit = fol.Not(lit)
			}
			s.Assert(lit)
		}
		want := Unknown
		switch s.CheckSat().Status {
		case smt.Unsat:
			want = Valid
		case smt.Sat:
			want = Invalid
		}
		if sc.Verdict != want {
			t.Errorf("scenario %v = %s, fresh solver says %s", sc.Assumptions, sc.Verdict, want)
		}
	}
}
