package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestScenarioThroughput(t *testing.T) {
	rows, err := ScenarioThroughput(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := len(scenarioPolicies()) * len(scenarioStrategies)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Cases != 2 || r.Elapsed <= 0 {
			t.Errorf("row = %+v", r)
		}
	}
	out := RenderScenarios(rows)
	if !strings.Contains(out, "subgraph workers=4") || !strings.Contains(out, "vs 1 worker") {
		t.Errorf("render:\n%s", out)
	}
}

func TestScenarioGridDistinctQuestions(t *testing.T) {
	cases := scenarioGrid(24)
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Question] {
			t.Errorf("duplicate question %q", c.Question)
		}
		seen[c.Question] = true
	}
	if len(cases) != 24 {
		t.Errorf("grid = %d cases", len(cases))
	}
	// Requesting more than the grid holds clamps instead of failing.
	if got := len(scenarioGrid(1000)); got != 24 {
		t.Errorf("clamped grid = %d", got)
	}
}
