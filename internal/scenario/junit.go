package scenario

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// JUnit XML reporter. The shape follows the de-facto schema every CI
// system ingests (Jenkins/GitHub/GitLab test summaries): <testsuites>
// wrapping one <testsuite> per executed suite, one <testcase> per
// scenario. Verdict mismatches render as <failure>, engine errors as
// <error>, and matched-UNKNOWN scenarios as <skipped> so "needs human
// judgment" shows up yellow, not green. Nondeterministic attributes
// (timestamps, hostnames) are deliberately omitted so reports for the same
// run content are byte-identical.

type junitTestsuites struct {
	XMLName  xml.Name         `xml:"testsuites"`
	Name     string           `xml:"name,attr"`
	Tests    int              `xml:"tests,attr"`
	Failures int              `xml:"failures,attr"`
	Errors   int              `xml:"errors,attr"`
	Skipped  int              `xml:"skipped,attr"`
	Time     string           `xml:"time,attr"`
	Suites   []junitTestsuite `xml:"testsuite"`
}

type junitTestsuite struct {
	Name     string          `xml:"name,attr"`
	Tests    int             `xml:"tests,attr"`
	Failures int             `xml:"failures,attr"`
	Errors   int             `xml:"errors,attr"`
	Skipped  int             `xml:"skipped,attr"`
	Time     string          `xml:"time,attr"`
	File     string          `xml:"file,attr,omitempty"`
	Cases    []junitTestcase `xml:"testcase"`
}

type junitTestcase struct {
	Name      string        `xml:"name,attr"`
	Classname string        `xml:"classname,attr"`
	Time      string        `xml:"time,attr"`
	Failure   *junitMessage `xml:"failure,omitempty"`
	Error     *junitMessage `xml:"error,omitempty"`
	Skipped   *junitMessage `xml:"skipped,omitempty"`
}

type junitMessage struct {
	Message string `xml:"message,attr"`
	Type    string `xml:"type,attr,omitempty"`
	Body    string `xml:",chardata"`
}

// WriteJUnit renders a run as JUnit XML.
func WriteJUnit(w io.Writer, results []*SuiteResult) error {
	root := junitTestsuites{Name: "quagmire scenarios"}
	var total float64
	for _, r := range results {
		ts := junitTestsuite{
			Name: r.Suite, File: r.File,
			Tests: len(r.Cases), Failures: r.Failed, Errors: r.Errored, Skipped: r.Skipped,
			Time: junitSeconds(r.Elapsed.Seconds()),
		}
		for _, cr := range r.Cases {
			tc := junitTestcase{
				Name:      cr.Case.Name,
				Classname: junitClassname(r),
				Time:      junitSeconds(cr.Elapsed.Seconds()),
			}
			switch cr.Outcome() {
			case Fail:
				tc.Failure = &junitMessage{
					Message: fmt.Sprintf("want %s, got %s", cr.Case.Want, cr.Got),
					Type:    "verdict-mismatch",
					Body:    "question: " + cr.Case.Question,
				}
			case ErrorOutcome:
				tc.Error = &junitMessage{
					Message: cr.Err.Error(),
					Type:    "engine-error",
					Body:    "question: " + cr.Case.Question,
				}
			case Skip:
				tc.Skipped = &junitMessage{Message: "verdict UNKNOWN: " + skipNote(cr.Cause)}
			}
			ts.Cases = append(ts.Cases, tc)
		}
		root.Suites = append(root.Suites, ts)
		root.Tests += ts.Tests
		root.Failures += ts.Failures
		root.Errors += ts.Errors
		root.Skipped += ts.Skipped
		total += r.Elapsed.Seconds()
	}
	root.Time = junitSeconds(total)

	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(root); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// junitClassname is the dotted grouping key test UIs split on.
func junitClassname(r *SuiteResult) string {
	slug := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9':
			return c
		default:
			return '_'
		}
	}, r.Suite)
	return "quagmire.scenario." + slug
}

// junitSeconds formats durations the way JUnit consumers expect.
func junitSeconds(s float64) string { return fmt.Sprintf("%.3f", s) }
