package scenario

import (
	"context"
	"runtime"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/query"
)

// Outcome classifies one executed case.
type Outcome string

// Outcomes.
const (
	// Pass: the verdict matched the expectation.
	Pass Outcome = "pass"
	// Skip: the case expected UNKNOWN and got it — the scenario is pinned
	// as "needs human judgment", which CI reports as skipped, not green.
	Skip Outcome = "skip"
	// Fail: the verdict mismatched the expectation — a policy regression.
	Fail Outcome = "fail"
	// ErrorOutcome: the engine failed (parse error, deadline, cancellation).
	ErrorOutcome Outcome = "error"
)

// CaseResult is one executed case.
type CaseResult struct {
	// Case is the compiled scenario.
	Case Case
	// Got is the produced verdict (empty on error).
	Got query.Verdict
	// Cause says why an UNKNOWN verdict is unknown (query.Result.Cause).
	Cause string
	// ConditionalOn lists the vague conditions a VALID verdict hinged on.
	ConditionalOn []string
	// Elapsed is the case's wall time.
	Elapsed time.Duration
	// Err is the engine failure, nil otherwise.
	Err error
}

// Outcome classifies the result.
func (r CaseResult) Outcome() Outcome {
	switch {
	case r.Err != nil:
		return ErrorOutcome
	case r.Got != r.Case.Want:
		return Fail
	case r.Got == query.Unknown:
		return Skip
	default:
		return Pass
	}
}

// SuiteResult summarizes one executed suite.
type SuiteResult struct {
	// Suite, File and Policy identify what ran against what.
	Suite, File, Policy string
	// Cases holds one result per compiled case, in suite order.
	Cases []CaseResult
	// Passed, Skipped, Failed and Errored count outcomes.
	Passed, Skipped, Failed, Errored int
	// Elapsed is the whole suite's wall time.
	Elapsed time.Duration
}

// OK reports whether the suite is green: no mismatches and no errors
// (expected-UNKNOWN skips do not fail a build).
func (r *SuiteResult) OK() bool { return r.Failed == 0 && r.Errored == 0 }

// ErroredSuite wraps a suite-level failure — a file that would not read,
// parse or compile, or a run that died before producing case results —
// as a one-case errored SuiteResult, so reports and CI artifacts record
// the broken suite alongside the ones that did run instead of losing the
// whole report to it.
func ErroredSuite(file, name string, err error) *SuiteResult {
	if name == "" {
		name = file
	}
	return &SuiteResult{
		Suite: name, File: file,
		Cases:   []CaseResult{{Case: Case{Name: "suite"}, Err: err}},
		Errored: 1,
	}
}

// ExecOptions configures Execute.
type ExecOptions struct {
	// Deadline bounds each case's verification; it overrides the suite's
	// declared deadline when positive. 0 falls back to the suite (and then
	// to no per-case deadline beyond ctx's own).
	Deadline time.Duration
	// Workers bounds case-level parallelism; 0 selects the engine's worker
	// setting (and then GOMAXPROCS), 1 forces one-at-a-time execution.
	Workers int
	// Obs receives suite/case metrics; nil-safe.
	Obs *obs.Registry
	// Policy overrides the report's policy label (e.g. "store:id@3" when
	// the runner bound the policy externally).
	Policy string
}

// Execute runs a compiled suite against a policy's query engine. Cases run
// concurrently over a bounded pool — the scenario analog of
// query.AskBatch. Per-case failures (including per-case deadline expiry)
// are recorded on the corresponding CaseResult; Execute itself only
// errors when ctx is cancelled.
func Execute(ctx context.Context, eng *query.Engine, cs *CompiledSuite, opts ExecOptions) (*SuiteResult, error) {
	res := &SuiteResult{
		Suite: cs.Name, File: cs.File, Policy: cs.Policy,
		Cases: make([]CaseResult, len(cs.Cases)),
	}
	if opts.Policy != "" {
		res.Policy = opts.Policy
	}
	deadline := opts.Deadline
	if deadline <= 0 {
		deadline = cs.Deadline
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = eng.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cs.Cases) {
		workers = len(cs.Cases)
	}

	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res.Cases[i] = runCase(ctx, eng, cs.Cases[i], deadline)
			}
		}()
	}
	// Like AskBatch, dispatch never blocks on a cancelled context: workers
	// keep draining and runCase stamps skipped cases with ctx.Err().
	for i := range cs.Cases {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.Elapsed = time.Since(start)

	for i := range res.Cases {
		switch res.Cases[i].Outcome() {
		case Pass:
			res.Passed++
		case Skip:
			res.Skipped++
		case Fail:
			res.Failed++
		case ErrorOutcome:
			res.Errored++
		}
	}
	observeSuite(opts.Obs, res)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runCase verifies one case under its deadline.
func runCase(ctx context.Context, eng *query.Engine, c Case, deadline time.Duration) CaseResult {
	out := CaseResult{Case: c}
	if err := ctx.Err(); err != nil {
		out.Err = err
		return out
	}
	caseCtx := ctx
	if deadline > 0 {
		var cancel context.CancelFunc
		caseCtx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	start := time.Now()
	qr, err := eng.Ask(caseCtx, c.Question)
	out.Elapsed = time.Since(start)
	if err != nil {
		out.Err = err
		return out
	}
	out.Got = qr.Verdict
	out.Cause = qr.Cause
	out.ConditionalOn = qr.ConditionalOn
	return out
}

// observeSuite exports run metrics: one suite counter tick, per-outcome
// case counters, and latency histograms at both granularities.
func observeSuite(reg *obs.Registry, res *SuiteResult) {
	reg.Counter("quagmire_scenario_suites_total").Inc()
	reg.Histogram("quagmire_scenario_suite_seconds", obs.TimeBuckets).ObserveDuration(res.Elapsed)
	for _, cr := range res.Cases {
		reg.Counter("quagmire_scenario_cases_total", "outcome", string(cr.Outcome())).Inc()
		reg.Histogram("quagmire_scenario_case_seconds", obs.TimeBuckets).ObserveDuration(cr.Elapsed)
	}
}
