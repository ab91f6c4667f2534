package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
)

// capture redirects stdout around fn and returns what was printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	var err error
	out := redirect(t, &os.Stdout, func() { err = fn() })
	return out, err
}

// redirect runs fn with *f replaced by a pipe and returns what fn wrote
// to it.
func redirect(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	w.Close()
	*f = old
	return <-done
}

func writePolicy(t *testing.T, text string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "policy.txt")
	if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnalyzeSubcommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	out, err := capture(t, func() error { return run([]string{"analyze", p}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"company:", "Acme", "total edges:"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestEdgesSubcommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	out, err := capture(t, func() error { return run([]string{"edges", p}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "]-") || !strings.Contains(out, "->[") {
		t.Errorf("edges output:\n%s", out)
	}
}

func TestAskSubcommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	out, err := capture(t, func() error {
		return run([]string{"ask", p, "Does Acme sell my personal information?"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "verdict: INVALID") {
		t.Errorf("ask output:\n%s", out)
	}
}

func TestDiffSubcommand(t *testing.T) {
	p1 := writePolicy(t, corpus.Mini())
	p2 := writePolicy(t, strings.Replace(corpus.Mini(), "device identifiers", "browsing history", 1))
	out, err := capture(t, func() error { return run([]string{"diff", p1, p2}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "added: 1") || !strings.Contains(out, "removed: 1") {
		t.Errorf("diff output:\n%s", out)
	}
}

func TestSolveSubcommand(t *testing.T) {
	f := filepath.Join(t.TempDir(), "q.smt2")
	script := "(declare-fun p () Bool)\n(assert p)\n(assert (not p))\n(check-sat)\n"
	if err := os.WriteFile(f, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"solve", f}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "unsat") {
		t.Errorf("solve output: %q", out)
	}
}

// TestSolveRefusesTwoSorts checks that `quagmire solve` fails, rather than
// answering unsat, on a satisfiable script with two sorts.
func TestSolveRefusesTwoSorts(t *testing.T) {
	f := filepath.Join(t.TempDir(), "two.smt2")
	script := "(declare-sort A 0) (declare-sort B 0)\n" +
		"(declare-const a A) (declare-const b1 B) (declare-const b2 B)\n" +
		"(assert (forall ((x A) (y A)) (= x y)))\n(assert (not (= b1 b2)))\n(check-sat)\n"
	if err := os.WriteFile(f, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"solve", f}) })
	if err == nil || !strings.Contains(err.Error(), "declare-sort B") {
		t.Fatalf("solve = %v, output %q; want an error naming the second declare-sort", err, out)
	}
}

func TestVagueSubcommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	out, err := capture(t, func() error { return run([]string{"vague", p}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "business purpose") {
		t.Errorf("vague output:\n%s", out)
	}
}

func TestCorpusSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"corpus", "mini"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Acme Privacy Policy") {
		t.Errorf("corpus output:\n%s", out[:80])
	}
}

func TestErrorCases(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"analyze"},
		{"analyze", "/nonexistent/file"},
		{"ask", "onlyonearg"},
		{"diff", "one"},
		{"solve"},
		{"corpus", "bogus"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestReportSubcommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	out, err := capture(t, func() error { return run([]string{"report", p}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# Privacy Policy Audit — Acme") {
		t.Errorf("report output:\n%s", out[:120])
	}
}

func TestDotSubcommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	out, err := capture(t, func() error { return run([]string{"dot", p, "data"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "->") {
		t.Errorf("dot output:\n%s", out[:100])
	}
	if _, err := capture(t, func() error { return run([]string{"dot", p, "bogus"}) }); err == nil {
		t.Error("bogus dot kind should fail")
	}
}

func TestHTMLPolicyIngestion(t *testing.T) {
	html := `<html><body><h1>Acme Privacy Policy</h1>
<p>This Privacy Policy describes how Acme ("we") handles data.</p>
<p>We collect your email address.</p></body></html>`
	p := filepath.Join(t.TempDir(), "policy.html")
	if err := os.WriteFile(p, []byte(html), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"analyze", p}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Acme") || !strings.Contains(out, "total edges:") {
		t.Errorf("HTML analyze output:\n%s", out)
	}
}

func TestExploreSubcommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	out, err := capture(t, func() error {
		return run([]string{"explore", p, "Does Acme share my usage data with service providers?"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "VALID") || !strings.Contains(out, "always valid: false") {
		t.Errorf("explore output:\n%s", out)
	}
}

// TestStatsForEveryPipelineCommand: -stats writes the pipeline's metrics
// table to stderr after each subcommand that analyzes a policy, with the
// question phases of those that ask one.
func TestStatsForEveryPipelineCommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	edited := writePolicy(t, strings.Replace(corpus.Mini(), "device identifiers", "browsing history", 1))
	q := "Does Acme collect my device identifiers?"
	suite := writeSuite(t, "green.qq", greenSuite)
	for _, c := range []struct {
		args []string
		asks bool
	}{
		{[]string{"ask", p, q}, true},
		{[]string{"explain", p, q}, true},
		{[]string{"explore", p, q}, true},
		{[]string{"check", "-suite", suite}, true},
		{[]string{"dot", p}, false},
		{[]string{"report", p}, false},
		{[]string{"compare", p, p}, false},
		{[]string{"diff", p, edited}, false},
	} {
		stderr := redirect(t, &os.Stderr, func() {
			if out, err := capture(t, func() error {
				return run(append([]string{"-stats", "-workers", "2"}, c.args...))
			}); err != nil {
				t.Errorf("%s: %v\n%s", c.args[0], err, out)
			}
		})
		want := []string{"stage", `quagmire_pipeline_phase_seconds{phase="extract"}`}
		if c.asks {
			want = append(want, `quagmire_query_phase_seconds{phase="solve"}`)
		}
		for _, w := range want {
			if !strings.Contains(stderr, w) {
				t.Errorf("-stats %s: stderr lacks %q:\n%s", c.args[0], w, stderr)
			}
		}
	}
}

func TestExplainSubcommand(t *testing.T) {
	p := writePolicy(t, corpus.Mini())
	out, err := capture(t, func() error {
		return run([]string{"explain", p, "Does Acme collect my device identifiers?"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "verdict: VALID") || !strings.Contains(out, "evidence:") {
		t.Errorf("explain output:\n%s", out)
	}
}
