package scenario

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/query"
)

// miniSuiteSrc is the executable fixture: a pack plus direct scenarios whose
// verdicts on the Mini corpus are pinned by the policy text.
const miniSuiteSrc = `suite "acme-baseline" {
  policy "corpus:mini"
  deadline 30s
  actor advertisers = "advertising partners"
  data  email       = "email address"

  use ccpa-no-sale(controller = "Acme")

  scenario "collection is disclosed" {
    ask "Does Acme collect my device identifiers?"
    expect VALID
  }
  scenario "email reaches advertisers" {
    ask "Does Acme share my $email with $advertisers?"
    expect VALID
  }
  scenario "usage data flows conditionally" {
    ask "Does Acme share my usage data with service providers?"
    expect VALID
    tag "conditional"
  }
}`

var (
	miniOnce sync.Once
	miniEng  *query.Engine
	miniErr  error
)

// miniEngine analyzes the Mini corpus once for the whole package, through
// a default pipeline (the configuration `quagmire check` and the server
// use).
func miniEngine(t testing.TB) *query.Engine {
	t.Helper()
	miniOnce.Do(func() {
		p, err := core.New(core.Options{})
		if err != nil {
			miniErr = err
			return
		}
		a, err := p.Analyze(context.Background(), corpus.Mini())
		if err != nil {
			miniErr = err
			return
		}
		miniEng = a.Engine
	})
	if miniErr != nil {
		t.Fatal(miniErr)
	}
	return miniEng
}

func compileSrc(t testing.TB, src string) *CompiledSuite {
	t.Helper()
	s, err := Parse("mini.qq", src)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestExecuteMiniSuite(t *testing.T) {
	eng := miniEngine(t)
	cs := compileSrc(t, miniSuiteSrc)
	reg := obs.NewRegistry()
	res, err := Execute(context.Background(), eng, cs, ExecOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("suite not green:\n%s", RenderText([]*SuiteResult{res}))
	}
	if res.Passed != len(cs.Cases) || res.Failed != 0 || res.Errored != 0 {
		t.Errorf("counts = %d/%d/%d/%d", res.Passed, res.Skipped, res.Failed, res.Errored)
	}
	// The conditional scenario must surface the vague condition it hinges on.
	var conditional *CaseResult
	for i := range res.Cases {
		if res.Cases[i].Case.Name == "usage data flows conditionally" {
			conditional = &res.Cases[i]
		}
	}
	if conditional == nil || len(conditional.ConditionalOn) == 0 {
		t.Errorf("conditional case did not report its conditions: %+v", conditional)
	}
	if got := reg.Counter("quagmire_scenario_suites_total").Value(); got != 1 {
		t.Errorf("suites_total = %d", got)
	}
	if got := reg.Counter("quagmire_scenario_cases_total", "outcome", "pass").Value(); got != uint64(len(cs.Cases)) {
		t.Errorf("cases_total{pass} = %d, want %d", got, len(cs.Cases))
	}
}

func TestExecuteFailClassification(t *testing.T) {
	eng := miniEngine(t)
	cs := compileSrc(t, `suite "regression" {
  scenario "wrong expectation" {
    ask "Does Acme sell my personal information?"
    expect VALID
  }
}`)
	reg := obs.NewRegistry()
	res, err := Execute(context.Background(), eng, cs, ExecOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || res.Failed != 1 {
		t.Fatalf("result = %+v, want 1 failure", res)
	}
	cr := res.Cases[0]
	if cr.Outcome() != Fail || cr.Got != query.Invalid {
		t.Errorf("case = outcome %s got %s", cr.Outcome(), cr.Got)
	}
	if got := reg.Counter("quagmire_scenario_cases_total", "outcome", "fail").Value(); got != 1 {
		t.Errorf("cases_total{fail} = %d", got)
	}
}

func TestExecutePerCaseDeadline(t *testing.T) {
	eng := miniEngine(t)
	cs := compileSrc(t, `suite "slow" {
  deadline 1ns
  scenario "cannot finish" {
    ask "Does Acme sell my personal information?"
    expect INVALID
  }
}`)
	res, err := Execute(context.Background(), eng, cs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errored != 1 || res.OK() {
		t.Fatalf("result = %+v, want 1 errored", res)
	}
	if !errors.Is(res.Cases[0].Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", res.Cases[0].Err)
	}
	// An explicit option deadline overrides the suite's.
	res, err = Execute(context.Background(), eng, cs, ExecOptions{Deadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("override run not green:\n%s", RenderText([]*SuiteResult{res}))
	}
}

func TestExecuteCancelledContext(t *testing.T) {
	eng := miniEngine(t)
	cs := compileSrc(t, miniSuiteSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Execute(ctx, eng, cs, ExecOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Errored != len(cs.Cases) {
		t.Fatalf("result = %+v, want every case errored", res)
	}
}

func TestOutcomeClassification(t *testing.T) {
	cases := []struct {
		r    CaseResult
		want Outcome
	}{
		{CaseResult{Case: Case{Want: query.Valid}, Err: errors.New("boom")}, ErrorOutcome},
		{CaseResult{Case: Case{Want: query.Valid}, Got: query.Invalid}, Fail},
		{CaseResult{Case: Case{Want: query.Unknown}, Got: query.Unknown}, Skip},
		{CaseResult{Case: Case{Want: query.Valid}, Got: query.Valid}, Pass},
		{CaseResult{Case: Case{Want: query.Invalid}, Got: query.Invalid}, Pass},
		{CaseResult{Case: Case{Want: query.Unknown}, Got: query.Valid}, Fail},
	}
	for _, c := range cases {
		if got := c.r.Outcome(); got != c.want {
			t.Errorf("Outcome(%+v) = %s, want %s", c.r, got, c.want)
		}
	}
}

func TestExecutePolicyLabelOverride(t *testing.T) {
	eng := miniEngine(t)
	cs := compileSrc(t, `suite "labelled" {
  scenario "one" { ask "Does Acme collect my device identifiers?" expect VALID }
}`)
	res, err := Execute(context.Background(), eng, cs, ExecOptions{Policy: "store:acme@3"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "store:acme@3" {
		t.Errorf("policy label = %q", res.Policy)
	}
	if !strings.Contains(RenderText([]*SuiteResult{res}), "store:acme@3") {
		t.Errorf("text report missing policy label")
	}
}
