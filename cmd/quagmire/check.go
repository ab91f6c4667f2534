package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/scenario"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// runCheck is `quagmire check -suite ...`: execute compliance-as-code
// scenario suites and gate CI on the verdicts. The exit status is the
// contract — zero only when every suite is green (expected-UNKNOWN cases
// skip, they do not fail).
//
// Policy sources, in precedence order:
//
//	-policy id[@n] -data dir   a stored version (latest when @n is omitted)
//	-policy-file path          analyze a policy file
//	-corpus name               analyze a bundled synthetic policy
//	(none)                     each suite's own `policy "..."` declaration:
//	                           "corpus:<name>", "file:<path relative to the
//	                           suite file>", or "store:<id>[@n]" (needs -data)
//
// Engines are cached per policy reference, so a multi-suite run analyzes
// each distinct policy once. They answer exactly as the server's engines
// do: each question is solved on its own subgraph.
func runCheck(ctx context.Context, args []string, p *core.Pipeline, workers int) error {
	fs := flag.NewFlagSet("quagmire check", flag.ContinueOnError)
	suitePath := fs.String("suite", "", "scenario suite file or directory of *.qq files (required)")
	policyRef := fs.String("policy", "", "stored policy id[@version] to check (requires -data)")
	dataDir := fs.String("data", "", "policy store directory (for -policy and store: references)")
	policyFile := fs.String("policy-file", "", "policy text/HTML file to check")
	corpusName := fs.String("corpus", "", "bundled corpus policy to check (tiktak|metabook|healthtrack|mini)")
	junitPath := fs.String("junit", "", "write a JUnit XML report to this path")
	jsonPath := fs.String("json", "", "write a JSON report to this path")
	deadline := fs.Duration("deadline", 0, "per-scenario verification deadline (overrides suite declarations)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suitePath == "" {
		return fmt.Errorf("check: -suite is required (a .qq scenario suite or a directory of them; see docs/sample-suite.qq)")
	}
	if rest := fs.Args(); len(rest) > 0 {
		return fmt.Errorf("check: unexpected argument %q", rest[0])
	}
	override, err := overrideRef(*policyRef, *policyFile, *corpusName, *dataDir)
	if err != nil {
		return err
	}

	files, err := suiteFiles(*suitePath)
	if err != nil {
		return err
	}
	r := &checkRunner{ctx: ctx, pipeline: p, dataDir: *dataDir, engines: map[string]*query.Engine{}}
	defer r.close()

	// A suite that fails before producing case results — unreadable file,
	// parse or compile error, unresolvable policy, execution abort — is
	// recorded as an errored suite and the run continues, so one broken
	// suite costs its own verdicts, not the whole report: -junit/-json
	// artifacts are always written, with the failure in them.
	results := make([]*scenario.SuiteResult, 0, len(files))
	for _, file := range files {
		results = append(results, runSuite(ctx, r, file, override, *deadline, workers))
	}

	fmt.Print(scenario.RenderText(results))
	if err := writeReports(results, *junitPath, *jsonPath); err != nil {
		return err
	}
	rep := scenario.NewReport(results)
	if !rep.OK {
		return fmt.Errorf("%d scenario(s) failed, %d errored", rep.Totals.Failed, rep.Totals.Errored)
	}
	return nil
}

// runSuite reads, compiles and executes one suite file. Any failure along
// the way comes back as an errored SuiteResult, never an early abort.
func runSuite(ctx context.Context, r *checkRunner, file, override string, deadline time.Duration, workers int) *scenario.SuiteResult {
	src, err := os.ReadFile(file)
	if err != nil {
		return scenario.ErroredSuite(file, "", err)
	}
	parsed, err := scenario.Parse(file, string(src))
	if err != nil {
		return scenario.ErroredSuite(file, "", err)
	}
	cs, err := scenario.Compile(parsed)
	if err != nil {
		return scenario.ErroredSuite(file, parsed.Name, err)
	}
	ref := override
	if ref == "" {
		ref = cs.Policy
	}
	if ref == "" {
		return scenario.ErroredSuite(file, cs.Name,
			fmt.Errorf("suite declares no policy and none was given (-policy/-policy-file/-corpus)"))
	}
	eng, err := r.engineFor(ref, filepath.Dir(file))
	if err != nil {
		return scenario.ErroredSuite(file, cs.Name, err)
	}
	res, err := scenario.Execute(ctx, eng, cs, scenario.ExecOptions{
		Deadline: deadline,
		Workers:  workers,
		Obs:      r.pipeline.Obs(),
		Policy:   ref,
	})
	if err != nil {
		return scenario.ErroredSuite(file, cs.Name, err)
	}
	return res
}

// overrideRef folds the three policy-selection flags into one canonical
// reference (empty = defer to each suite's declaration).
func overrideRef(policyRef, policyFile, corpusName, dataDir string) (string, error) {
	set := 0
	for _, s := range []string{policyRef, policyFile, corpusName} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return "", fmt.Errorf("check: -policy, -policy-file and -corpus are mutually exclusive")
	}
	switch {
	case policyRef != "":
		if dataDir == "" {
			return "", fmt.Errorf("check: -policy requires -data <store directory>")
		}
		return "store:" + policyRef, nil
	case policyFile != "":
		abs, err := filepath.Abs(policyFile)
		if err != nil {
			return "", err
		}
		return "file:" + abs, nil
	case corpusName != "":
		return "corpus:" + corpusName, nil
	}
	return "", nil
}

// suiteFiles expands the -suite argument: a directory means every *.qq file
// in it, sorted for deterministic run order.
func suiteFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	files, err := filepath.Glob(filepath.Join(path, "*.qq"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("check: no *.qq suites in %s", path)
	}
	sort.Strings(files)
	return files, nil
}

// checkRunner resolves policy references to query engines, caching one
// engine per distinct reference across suites.
type checkRunner struct {
	ctx      context.Context
	pipeline *core.Pipeline
	dataDir  string
	st       *store.Disk
	engines  map[string]*query.Engine
}

// close releases the read-only store.
func (r *checkRunner) close() {
	if r.st != nil {
		r.st.Close()
	}
}

// engineFor resolves one canonical policy reference. Relative file:
// references resolve against baseDir (the suite file's directory), so a
// suite and its policy fixture can travel together. file: cache keys are
// absolutized and cleaned, so "file:./p.txt", "file:p.txt" and the -policy-file
// spelling of the same path all share one engine.
func (r *checkRunner) engineFor(ref, baseDir string) (*query.Engine, error) {
	kind, arg, ok := strings.Cut(ref, ":")
	if !ok {
		return nil, fmt.Errorf("invalid policy reference %q (want corpus:<name>, file:<path> or store:<id>[@n])", ref)
	}
	key := ref
	if kind == "file" {
		path := arg
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		if abs, err := filepath.Abs(path); err == nil {
			path = abs
		}
		key = "file:" + filepath.Clean(path)
	}
	if eng, ok := r.engines[key]; ok {
		return eng, nil
	}
	var (
		eng *query.Engine
		err error
	)
	switch kind {
	case "corpus":
		text := corpusText(arg)
		if text == "" {
			return nil, fmt.Errorf("unknown corpus %q (tiktak|metabook|healthtrack|mini)", arg)
		}
		eng, err = r.analyzeText(text)
	case "file":
		var text string
		if text, err = readPolicy(strings.TrimPrefix(key, "file:")); err == nil {
			eng, err = r.analyzeText(text)
		}
	case "store":
		eng, err = r.storeEngine(arg)
	default:
		err = fmt.Errorf("unknown policy reference kind %q in %q", kind, ref)
	}
	if err != nil {
		return nil, err
	}
	r.engines[key] = eng
	return eng, nil
}

func (r *checkRunner) analyzeText(text string) (*query.Engine, error) {
	a, err := r.pipeline.Analyze(r.ctx, text)
	if err != nil {
		return nil, err
	}
	return a.Engine, nil
}

// storeEngine rebuilds a stored version's engine via the analysis codec —
// the same path the server uses, so check verdicts match served verdicts.
func (r *checkRunner) storeEngine(arg string) (*query.Engine, error) {
	if r.dataDir == "" {
		return nil, fmt.Errorf("store:%s requires -data <store directory>", arg)
	}
	if r.st == nil {
		// check only reads, and a running quagmired may be appending to
		// the directory: a read-only open changes no byte of it.
		st, err := store.OpenReadOnly(r.dataDir, store.Options{})
		if err != nil {
			return nil, err
		}
		r.st = st
	}
	id, n, err := splitVersionRef(arg)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		pol, err := r.st.Get(id)
		if err != nil {
			return nil, err
		}
		n = pol.Versions
	}
	payload, err := r.st.LoadPayload(id, n)
	if err != nil {
		return nil, err
	}
	a, err := r.pipeline.DecodeAnalysis(payload)
	if err != nil {
		return nil, err
	}
	return a.Engine, nil
}

// splitVersionRef parses "id" or "id@n" (n=0 means latest).
func splitVersionRef(arg string) (id string, n int, err error) {
	id, ver, ok := strings.Cut(arg, "@")
	if id == "" {
		return "", 0, fmt.Errorf("empty policy id in %q", arg)
	}
	if !ok {
		return id, 0, nil
	}
	n, err = strconv.Atoi(ver)
	if err != nil || n < 1 {
		return "", 0, fmt.Errorf("invalid version %q (want a positive integer)", ver)
	}
	return id, n, nil
}

// corpusText maps a corpus name to its bundled policy ("" = unknown).
func corpusText(name string) string {
	switch name {
	case "tiktak":
		return corpus.TikTak()
	case "metabook":
		return corpus.MetaBook()
	case "healthtrack":
		return corpus.HealthTrack()
	case "mini":
		return corpus.Mini()
	}
	return ""
}

// writeReports renders the JUnit and JSON artifacts.
func writeReports(results []*scenario.SuiteResult, junitPath, jsonPath string) error {
	if junitPath != "" {
		f, err := os.Create(junitPath)
		if err != nil {
			return err
		}
		if err := scenario.WriteJUnit(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := scenario.WriteJSON(f, scenario.NewReport(results)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
