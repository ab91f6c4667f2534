package main

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// writeSuite drops a .qq suite into its own temp directory.
func writeSuite(t *testing.T, name, src string) string {
	t.Helper()
	dir := t.TempDir()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const greenSuite = `suite "green" {
  policy "corpus:mini"
  use ccpa-no-sale(controller = "Acme")
  scenario "collection disclosed" {
    ask "Does Acme collect my device identifiers?"
    expect VALID
  }
}`

func TestCheckScenarioSuite(t *testing.T) {
	p := writeSuite(t, "green.qq", greenSuite)
	junit := filepath.Join(t.TempDir(), "report.xml")
	jsonOut := filepath.Join(t.TempDir(), "report.json")
	out, err := capture(t, func() error {
		return run([]string{"check", "-suite", p, "-junit", junit, "-json", jsonOut})
	})
	if err != nil {
		t.Fatalf("check failed: %v\n%s", err, out)
	}
	for _, want := range []string{"3 passed, 0 skipped, 0 failed, 0 errored", "ccpa-no-sale: no sale of personal information"} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
	xml, err := os.ReadFile(junit)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(xml), `<testsuite name="green" tests="3" failures="0"`) {
		t.Errorf("junit report:\n%s", xml)
	}
	js, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"format": "quagmire-scenario-report/1"`) || !strings.Contains(string(js), `"ok": true`) {
		t.Errorf("json report:\n%s", js)
	}
}

// TestCheckSampleSuite runs the documented sample suite: the five Acme
// questions keep their verdicts, including the conditional one.
func TestCheckSampleSuite(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"check", "-suite", filepath.Join("..", "..", "docs", "sample-suite.qq")})
	})
	if err != nil {
		t.Fatalf("check failed: %v\n%s", err, out)
	}
	for _, want := range []string{"5 passed, 0 skipped, 0 failed, 0 errored", "conditional on: cond_legitimate_business_purposes"} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckScenarioDirectory(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"b_second.qq": `suite "second" { policy "corpus:mini" scenario "s" { ask "Does Acme sell my personal information?" expect INVALID } }`,
		"a_first.qq":  `suite "first" { policy "corpus:mini" scenario "f" { ask "Does Acme collect my device identifiers?" expect VALID } }`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := capture(t, func() error { return run([]string{"check", "-suite", dir}) })
	if err != nil {
		t.Fatalf("check failed: %v\n%s", err, out)
	}
	// Suites run in sorted file order, sharing one cached engine.
	if strings.Index(out, `suite "first"`) > strings.Index(out, `suite "second"`) {
		t.Errorf("suites out of order:\n%s", out)
	}
}

func TestCheckScenarioFailureExit(t *testing.T) {
	p := writeSuite(t, "red.qq", `suite "red" {
  policy "corpus:mini"
  scenario "wrong" {
    ask "Does Acme sell my personal information?"
    expect VALID
  }
}`)
	junit := filepath.Join(t.TempDir(), "report.xml")
	out, err := capture(t, func() error { return run([]string{"check", "-suite", p, "-junit", junit}) })
	if err == nil {
		t.Fatalf("failing suite must return an error:\n%s", out)
	}
	if !strings.Contains(err.Error(), "1 scenario(s) failed") {
		t.Errorf("error = %v", err)
	}
	// The JUnit artifact is still written for CI to upload.
	xml, rerr := os.ReadFile(junit)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.Contains(string(xml), `type="verdict-mismatch"`) {
		t.Errorf("junit report:\n%s", xml)
	}
}

func TestCheckPolicyOverrides(t *testing.T) {
	// Suite declares no policy; -corpus supplies it.
	p := writeSuite(t, "nopolicy.qq", `suite "nopolicy" {
  scenario "s" { ask "Does Acme sell my personal information?" expect INVALID }
}`)
	if out, err := capture(t, func() error { return run([]string{"check", "-suite", p, "-corpus", "mini"}) }); err != nil {
		t.Fatalf("-corpus override failed: %v\n%s", err, out)
	}
	// Without any policy source the run is a configuration error.
	if _, err := capture(t, func() error { return run([]string{"check", "-suite", p}) }); err == nil {
		t.Error("suite without policy should fail")
	}
	// -policy-file resolves a policy from disk.
	pf := writePolicy(t, corpus.Mini())
	if out, err := capture(t, func() error { return run([]string{"check", "-suite", p, "-policy-file", pf}) }); err != nil {
		t.Fatalf("-policy-file override failed: %v\n%s", err, out)
	}
}

func TestCheckFilePolicyReference(t *testing.T) {
	// A file: reference resolves relative to the suite's own directory.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "policy.txt"), []byte(corpus.Mini()), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `suite "local" {
  policy "file:policy.txt"
  scenario "s" { ask "Does Acme collect my device identifiers?" expect VALID }
}`
	if err := os.WriteFile(filepath.Join(dir, "local.qq"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := capture(t, func() error { return run([]string{"check", "-suite", dir}) }); err != nil {
		t.Fatalf("file: reference failed: %v\n%s", err, out)
	}
}

func TestCheckStoredPolicy(t *testing.T) {
	// Analyze Mini, persist it, then check the stored version by reference.
	dataDir := t.TempDir()
	pipe, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pipe.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenDisk(dataDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := st.Create("acme", store.Version{
		VersionMeta: store.VersionMeta{Company: a.KG.Company},
		Payload:     payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	p := writeSuite(t, "stored.qq", `suite "stored" {
  scenario "s" { ask "Does Acme sell my personal information?" expect INVALID }
}`)
	out, err := capture(t, func() error {
		return run([]string{"check", "-suite", p, "-policy", pol.ID + "@1", "-data", dataDir})
	})
	if err != nil {
		t.Fatalf("stored-policy check failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "policy store:"+pol.ID+"@1") {
		t.Errorf("output should label the store reference:\n%s", out)
	}
}

// TestCheckLeavesStoreUntouched: checking a version that lives only in
// the WAL reads the store without compacting it, and leaves a torn record
// at the end of wal.log, which a live quagmired may still be writing, as
// it is: check answers from the intact records and every file in the
// directory keeps its bytes. A missing store directory stays missing.
func TestCheckLeavesStoreUntouched(t *testing.T) {
	dataDir := t.TempDir()
	pipe, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pipe.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenDisk(dataDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := st.Create("acme", store.Version{VersionMeta: store.VersionMeta{Company: a.KG.Company}, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dataDir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	listing := func() map[string]string {
		entries, err := os.ReadDir(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dataDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	before := listing()

	p := writeSuite(t, "stored.qq", `suite "stored" {
  scenario "s" { ask "Does Acme sell my personal information?" expect INVALID }
}`)
	out, err := capture(t, func() error {
		return run([]string{"check", "-suite", p, "-policy", pol.ID, "-data", dataDir})
	})
	if err != nil || !strings.Contains(out, "1 passed") {
		t.Fatalf("check did not answer from the intact records: %v\n%s", err, out)
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Errorf("check changed the store directory: wal.log %d bytes before, %d after",
			len(before["wal.log"]), len(after["wal.log"]))
	}

	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := capture(t, func() error {
		return run([]string{"check", "-suite", p, "-policy", pol.ID, "-data", missing})
	}); err == nil {
		t.Error("check against a missing store directory passed")
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("check created the missing store directory: %v", err)
	}
}

func TestCheckConfigErrors(t *testing.T) {
	p := writeSuite(t, "green.qq", greenSuite)
	for _, args := range [][]string{
		{"check"},
		{"check", writePolicy(t, corpus.Mini()), p}, // positional form is gone
		{"check", "-suite", "/nonexistent"},
		{"check", "-suite", p, "-corpus", "bogus"},
		{"check", "-suite", p, "-policy", "id"}, // missing -data
		{"check", "-suite", p, "-corpus", "mini", "-policy-file", "x"},
		{"check", "-suite", p, "stray-arg"},
		{"check", "-suite", filepath.Dir(writeSuite(t, "bad.qq", `suite "b" {`))},
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	// An empty directory is an error, not a silent pass.
	if _, err := capture(t, func() error { return run([]string{"check", "-suite", t.TempDir()}) }); err == nil {
		t.Error("empty suite directory should fail")
	}
}

func TestCheckArtifactsWrittenWhenSuiteErrors(t *testing.T) {
	// One good suite, one that fails compilation (unknown pack). The run
	// must exit non-zero AND still write both artifacts, with the good
	// suite's verdicts intact and the broken suite recorded as errored —
	// a mid-run failure used to abort before any report was written.
	dir := t.TempDir()
	files := map[string]string{
		"a_good.qq": `suite "good" { policy "corpus:mini" scenario "s" { ask "Does Acme collect my device identifiers?" expect VALID } }`,
		"b_bad.qq":  `suite "bad" { policy "corpus:mini" use nonexistent-pack }`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	junit := filepath.Join(t.TempDir(), "report.xml")
	jsonOut := filepath.Join(t.TempDir(), "report.json")
	out, err := capture(t, func() error {
		return run([]string{"check", "-suite", dir, "-junit", junit, "-json", jsonOut})
	})
	if err == nil {
		t.Fatalf("run with a broken suite must fail:\n%s", out)
	}
	if !strings.Contains(err.Error(), "1 errored") {
		t.Errorf("error should count the broken suite: %v", err)
	}
	if !strings.Contains(out, "1 passed") || !strings.Contains(out, "1 errored") {
		t.Errorf("text output should include both suites:\n%s", out)
	}
	xml, rerr := os.ReadFile(junit)
	if rerr != nil {
		t.Fatalf("junit artifact missing: %v", rerr)
	}
	for _, want := range []string{`<testsuite name="good"`, `<testsuite name="bad"`, "nonexistent-pack"} {
		if !strings.Contains(string(xml), want) {
			t.Errorf("junit missing %q:\n%s", want, xml)
		}
	}
	js, rerr := os.ReadFile(jsonOut)
	if rerr != nil {
		t.Fatalf("json artifact missing: %v", rerr)
	}
	for _, want := range []string{`"ok": false`, `"errored": 1`, `"suite": "good"`, `"suite": "bad"`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("json missing %q:\n%s", want, js)
		}
	}
}

func TestCheckEngineCacheKeyCanonicalized(t *testing.T) {
	// "file:p.txt", "file:./p.txt" and "file:sub/../p.txt" are the same
	// policy; the engine cache must hold one entry, not three — each
	// spelling used to trigger a full re-analysis.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.txt"), []byte(corpus.Mini()), 0o644); err != nil {
		t.Fatal(err)
	}
	pipe, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := &checkRunner{ctx: context.Background(), pipeline: pipe, engines: map[string]*query.Engine{}}
	defer r.close()
	for _, ref := range []string{"file:p.txt", "file:./p.txt", "file:sub/../p.txt"} {
		if _, err := r.engineFor(ref, dir); err != nil {
			t.Fatalf("engineFor(%q): %v", ref, err)
		}
	}
	if len(r.engines) != 1 {
		keys := make([]string, 0, len(r.engines))
		for k := range r.engines {
			keys = append(keys, k)
		}
		t.Errorf("engine cache holds %d entries, want 1: %v", len(r.engines), keys)
	}
}
