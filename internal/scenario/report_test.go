package scenario

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/query"
)

var update = flag.Bool("update", false, "rewrite golden report files")

// goldenResults is a hand-built run exercising every outcome with fixed
// timings, so the rendered reports are byte-stable.
func goldenResults() []*SuiteResult {
	pass := CaseResult{
		Case: Case{
			Name: "ccpa-no-sale: no sale of personal information", Origin: "ccpa-no-sale",
			Question: "Does Acme sell my personal information?",
			Want:     query.Invalid, Tags: []string{"ccpa"},
		},
		Got: query.Invalid, Elapsed: 42 * time.Millisecond,
	}
	conditional := CaseResult{
		Case: Case{
			Name:     "usage data flows conditionally",
			Question: "Does Acme share my usage data with service providers?",
			Want:     query.Valid, Tags: []string{"conditional"},
		},
		Got: query.Valid, ConditionalOn: []string{"cond_legitimate_business_purposes"},
		Elapsed: 18 * time.Millisecond,
	}
	skip := CaseResult{
		Case: Case{
			Name:     "ambiguous retention clause",
			Question: "Does Acme retain my usage data indefinitely?",
			Want:     query.Unknown,
		},
		Got: query.Unknown, Cause: query.CauseContradiction, Elapsed: 7 * time.Millisecond,
	}
	fail := CaseResult{
		Case: Case{
			Name:     "email must not reach advertisers",
			Question: "Does Acme share my email address with advertising partners?",
			Want:     query.Invalid,
		},
		Got: query.Valid, Elapsed: 31 * time.Millisecond,
	}
	errored := CaseResult{
		Case: Case{
			Name:     "times out",
			Question: "Does Acme sell my browsing history?",
			Want:     query.Invalid,
		},
		Err: errors.New("context deadline exceeded"), Elapsed: 5 * time.Second,
	}
	green := &SuiteResult{
		Suite: "acme-baseline", File: "suites/acme_baseline.qq", Policy: "corpus:mini",
		Cases:  []CaseResult{pass, conditional, skip},
		Passed: 2, Skipped: 1,
		Elapsed: 67 * time.Millisecond,
	}
	red := &SuiteResult{
		Suite: "acme-regressions", File: "suites/acme_regressions.qq", Policy: "corpus:mini",
		Cases:  []CaseResult{fail, errored},
		Failed: 1, Errored: 1,
		Elapsed: 5031 * time.Millisecond,
	}
	return []*SuiteResult{green, red}
}

// checkGolden compares got against testdata/golden/<name>, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (run with -update to regenerate):\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestJSONReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, NewReport(goldenResults())); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", buf.Bytes())
}

func TestJUnitReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJUnit(&buf, goldenResults()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	checkGolden(t, "report.xml", got)
	// The golden file must not smuggle in nondeterministic attributes.
	for _, banned := range []string{"timestamp=", "hostname="} {
		if bytes.Contains(got, []byte(banned)) {
			t.Errorf("JUnit output contains nondeterministic attribute %q", banned)
		}
	}
}

func TestReportTotals(t *testing.T) {
	rep := NewReport(goldenResults())
	want := ReportTotals{Suites: 2, Cases: 5, Passed: 2, Skipped: 1, Failed: 1, Errored: 1}
	if rep.Totals != want {
		t.Errorf("totals = %+v, want %+v", rep.Totals, want)
	}
	if rep.OK {
		t.Error("report with failures must not be OK")
	}
	if rep.Format != ReportFormat {
		t.Errorf("format = %q", rep.Format)
	}
	green := NewReport(goldenResults()[:1])
	if !green.OK {
		t.Error("skip-only suite must stay OK (UNKNOWN is not a failure)")
	}
}

func TestRenderText(t *testing.T) {
	out := RenderText(goldenResults())
	for _, want := range []string{
		"PASS", "SKIP", "FAIL", "ERROR",
		"SKIP  UNKNOWN  ambiguous retention clause (human judgment required: contradiction)",
		"conditional on: cond_legitimate_business_purposes",
		"want INVALID, got VALID",
		"2 passed, 1 skipped, 1 failed, 1 errored",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestSkipLineNamesCause: a pinned UNKNOWN that the solver's budget
// produced says so on its SKIP line instead of asking for human judgment.
func TestSkipLineNamesCause(t *testing.T) {
	budget := "model found but quantifier instantiation incomplete"
	res := []*SuiteResult{{
		Suite: "budget",
		Cases: []CaseResult{{
			Case: Case{Name: "gave up", Want: query.Unknown},
			Got:  query.Unknown, Cause: budget,
		}},
		Skipped: 1,
	}}
	out := RenderText(res)
	if want := "SKIP  UNKNOWN  gave up (solver gave up: " + budget + ")"; !strings.Contains(out, want) {
		t.Errorf("text report missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "human judgment") {
		t.Errorf("a budget stop must not ask for human judgment:\n%s", out)
	}
	if got := NewReport(res).Suites[0].Cases[0].Cause; got != budget {
		t.Errorf("report cause = %q, want %q", got, budget)
	}
}
