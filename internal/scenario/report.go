package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/query"
)

// ReportFormat is the JSON report's format discriminator, bumped on
// breaking shape changes so CI consumers can pin it.
const ReportFormat = "quagmire-scenario-report/1"

// Report is the machine-readable run summary (the JSON reporter's shape).
type Report struct {
	// Format identifies the report schema.
	Format string `json:"format"`
	// OK is true when every suite passed.
	OK bool `json:"ok"`
	// Totals aggregates all suites.
	Totals ReportTotals `json:"totals"`
	// Suites holds one entry per executed suite, in run order.
	Suites []SuiteReport `json:"suites"`
}

// ReportTotals are cross-suite counts.
type ReportTotals struct {
	Suites  int `json:"suites"`
	Cases   int `json:"cases"`
	Passed  int `json:"passed"`
	Skipped int `json:"skipped"`
	Failed  int `json:"failed"`
	Errored int `json:"errored"`
}

// SuiteReport is one suite's JSON rendering.
type SuiteReport struct {
	Suite          string       `json:"suite"`
	File           string       `json:"file,omitempty"`
	Policy         string       `json:"policy,omitempty"`
	Passed         int          `json:"passed"`
	Skipped        int          `json:"skipped"`
	Failed         int          `json:"failed"`
	Errored        int          `json:"errored"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Cases          []CaseReport `json:"cases"`
}

// CaseReport is one case's JSON rendering.
type CaseReport struct {
	Name           string        `json:"name"`
	Question       string        `json:"question"`
	Want           query.Verdict `json:"want"`
	Got            query.Verdict `json:"got,omitempty"`
	Cause          string        `json:"cause,omitempty"`
	Outcome        Outcome       `json:"outcome"`
	ConditionalOn  []string      `json:"conditional_on,omitempty"`
	Tags           []string      `json:"tags,omitempty"`
	Origin         string        `json:"origin,omitempty"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	Error          string        `json:"error,omitempty"`
}

// NewReport builds the machine-readable summary of a run.
func NewReport(results []*SuiteResult) Report {
	rep := Report{Format: ReportFormat, OK: true, Suites: make([]SuiteReport, 0, len(results))}
	for _, r := range results {
		sr := SuiteReport{
			Suite: r.Suite, File: r.File, Policy: r.Policy,
			Passed: r.Passed, Skipped: r.Skipped, Failed: r.Failed, Errored: r.Errored,
			ElapsedSeconds: r.Elapsed.Seconds(),
			Cases:          make([]CaseReport, 0, len(r.Cases)),
		}
		for _, cr := range r.Cases {
			c := CaseReport{
				Name: cr.Case.Name, Question: cr.Case.Question,
				Want: cr.Case.Want, Got: cr.Got, Cause: cr.Cause, Outcome: cr.Outcome(),
				ConditionalOn:  cr.ConditionalOn,
				Tags:           cr.Case.Tags,
				Origin:         cr.Case.Origin,
				ElapsedSeconds: cr.Elapsed.Seconds(),
			}
			if cr.Err != nil {
				c.Error = cr.Err.Error()
			}
			sr.Cases = append(sr.Cases, c)
		}
		rep.Suites = append(rep.Suites, sr)
		rep.Totals.Suites++
		rep.Totals.Cases += len(r.Cases)
		rep.Totals.Passed += r.Passed
		rep.Totals.Skipped += r.Skipped
		rep.Totals.Failed += r.Failed
		rep.Totals.Errored += r.Errored
		if !r.OK() {
			rep.OK = false
		}
	}
	return rep
}

// WriteJSON renders the report as indented JSON.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// skipNote explains a pinned UNKNOWN on the text SKIP line: a
// contradiction needs human judgment, any other cause is the solver
// giving up.
func skipNote(cause string) string {
	switch cause {
	case query.CauseContradiction:
		return "human judgment required: contradiction"
	case "":
		return "human judgment required"
	}
	return "solver gave up: " + cause
}

// RenderText prints a run in the go-test-like format the CLI shows on
// stdout.
func RenderText(results []*SuiteResult) string {
	var b strings.Builder
	var totals ReportTotals
	for _, r := range results {
		fmt.Fprintf(&b, "=== suite %q", r.Suite)
		if r.Policy != "" {
			fmt.Fprintf(&b, " (policy %s)", r.Policy)
		}
		b.WriteByte('\n')
		for _, cr := range r.Cases {
			switch cr.Outcome() {
			case Pass:
				fmt.Fprintf(&b, "PASS  %-8s %s\n", cr.Got, cr.Case.Name)
			case Skip:
				fmt.Fprintf(&b, "SKIP  %-8s %s (%s)\n", cr.Got, cr.Case.Name, skipNote(cr.Cause))
			case Fail:
				fmt.Fprintf(&b, "FAIL  want %s, got %-8s %s\n", cr.Case.Want, cr.Got, cr.Case.Name)
				fmt.Fprintf(&b, "      question: %s\n", cr.Case.Question)
			case ErrorOutcome:
				fmt.Fprintf(&b, "ERROR %s: %v\n", cr.Case.Name, cr.Err)
			}
			if len(cr.ConditionalOn) > 0 {
				fmt.Fprintf(&b, "      conditional on: %s\n", strings.Join(cr.ConditionalOn, ", "))
			}
		}
		totals.Passed += r.Passed
		totals.Skipped += r.Skipped
		totals.Failed += r.Failed
		totals.Errored += r.Errored
	}
	fmt.Fprintf(&b, "\n%d passed, %d skipped, %d failed, %d errored\n",
		totals.Passed, totals.Skipped, totals.Failed, totals.Errored)
	return b.String()
}
