package experiments

// E14: compliance-as-code suite throughput. The scenario executor routes a
// whole suite through one engine, and every case is solved on its own
// question's subgraph, as every endpoint solves it. The sweep compares
// pooled workers against one-at-a-time execution. The suite asks every
// data-type × recipient combination, so each case is a distinct question
// (no SMT result-cache hits masking the solver cost), and it crosses two
// policy scales to show that a case's cost follows the practices its
// question touches, not the policy's size.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/scenario"
)

// ScenarioRow is one (policy × strategy) measurement.
type ScenarioRow struct {
	// Policy names the policy scale.
	Policy string
	// Cases is the suite size.
	Cases int
	// Mode names the execution strategy.
	Mode string
	// Elapsed is the whole-suite wall time.
	Elapsed time.Duration
}

// PerCase is the amortized per-scenario cost.
func (r ScenarioRow) PerCase() time.Duration {
	if r.Cases == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Cases)
}

// scenarioGrid synthesizes distinct compliance questions: every data type
// crossed with every recipient, up to n cases.
func scenarioGrid(n int) []scenario.Case {
	dataTypes := []string{
		"email address", "device identifiers", "usage data",
		"precise location", "medical records", "browsing history",
	}
	recipients := []string{
		"advertising partners", "service providers", "insurance companies", "data brokers",
	}
	var cases []scenario.Case
	for _, d := range dataTypes {
		for _, r := range recipients {
			cases = append(cases, scenario.Case{
				Name:     fmt.Sprintf("%s -> %s", d, r),
				Question: fmt.Sprintf("Does Acme share my %s with %s?", d, r),
				// Expectations are irrelevant to throughput; UNKNOWN keeps
				// mismatches out of the failure counters without asserting
				// anything about the verdict mix.
				Want: query.Unknown,
			})
		}
	}
	if n > len(cases) {
		n = len(cases)
	}
	return cases[:n]
}

// scenarioPolicies are the policy scales under test. Both carry the
// company name the grid questions address.
func scenarioPolicies() []struct{ name, text string } {
	return []struct{ name, text string }{
		{"mini (4 practices)", corpus.Mini()},
		{"generated (15 practices)", corpus.Generate(corpus.Config{
			Company: "Acme", Seed: 7,
			PracticeStatements: 15, BoilerplateEvery: 4,
			DataRichness: 60, EntityRichness: 40,
		})},
	}
}

// scenarioStrategies are the execution strategies under comparison.
var scenarioStrategies = []struct {
	mode    string
	workers int
}{
	{"subgraph one-at-a-time", 1},
	{"subgraph workers=4", 4},
}

// ScenarioThroughput measures an n-case suite under every strategy at each
// policy scale. Every cell gets a fresh pipeline and engine, so no cell
// answers from another's SMT result cache.
func ScenarioThroughput(ctx context.Context, n int) ([]ScenarioRow, error) {
	cs := &scenario.CompiledSuite{Name: fmt.Sprintf("grid-%d", n), Cases: scenarioGrid(n)}
	var rows []ScenarioRow
	for _, pol := range scenarioPolicies() {
		for _, st := range scenarioStrategies {
			p, err := core.New(core.Options{})
			if err != nil {
				return nil, err
			}
			a, err := p.Analyze(ctx, pol.text)
			if err != nil {
				return nil, err
			}
			res, err := scenario.Execute(ctx, a.Engine, cs, scenario.ExecOptions{Workers: st.workers})
			if err != nil {
				return nil, err
			}
			if res.Errored > 0 {
				return nil, fmt.Errorf("%s/%s: %d scenario errors", pol.name, st.mode, res.Errored)
			}
			rows = append(rows, ScenarioRow{
				Policy:  pol.name,
				Cases:   len(cs.Cases),
				Mode:    st.mode,
				Elapsed: res.Elapsed,
			})
		}
	}
	return rows, nil
}

// RenderScenarios renders the sweep, with each policy block's cost
// relative to its one-at-a-time run.
func RenderScenarios(rows []ScenarioRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %6s %-24s %12s %12s %12s\n",
		"Policy", "Cases", "Strategy", "Elapsed", "Per-case", "vs 1 worker")
	baselines := map[string]time.Duration{}
	for _, r := range rows {
		if r.Mode == scenarioStrategies[0].mode {
			baselines[r.Policy] = r.Elapsed
		}
	}
	for _, r := range rows {
		rel := "-"
		if base, ok := baselines[r.Policy]; ok && base > 0 && r.Elapsed != base {
			rel = fmt.Sprintf("x%.2f", float64(r.Elapsed)/float64(base))
		}
		fmt.Fprintf(&b, "%-26s %6d %-24s %12s %12s %12s\n",
			r.Policy, r.Cases, r.Mode,
			r.Elapsed.Round(10*time.Microsecond), r.PerCase().Round(time.Microsecond), rel)
	}
	return b.String()
}
