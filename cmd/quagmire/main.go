// Command quagmire is the pipeline CLI: analyze a privacy policy, list its
// extracted data-practice edges, answer compliance queries, diff two policy
// versions, and solve SMT-LIB files with the built-in solver.
//
// Usage:
//
//	quagmire analyze  <policy.txt>             extraction statistics (Table 1 metrics)
//	quagmire edges    <policy.txt>             all [actor]-action->[object] edges
//	quagmire ask      <policy.txt> "<query>" ["<query>" ...]  three-valued compliance verdict(s);
//	                                           multiple queries verify concurrently over -workers
//	quagmire diff     <old.txt> <new.txt>      segment-level policy diff
//	quagmire vague    <policy.txt>             vague conditions needing human review
//	quagmire report   <policy.txt>             markdown audit report
//	quagmire dot      <policy.txt> [graph|data|entity]  Graphviz export
//	quagmire check    -suite <dir|file.qq> [-policy id[@n] -data dir | -policy-file f | -corpus name]
//	                  [-junit out.xml] [-json out.json] [-deadline 30s]
//	                                           run compliance-as-code scenario suites (CI gate)
//	quagmire compare  <a.txt> <b.txt>          cross-company disclosure gap analysis
//	quagmire explore  <policy.txt> "<query>"   enumerate vague-condition scenarios
//	quagmire explain  <policy.txt> "<query>"   minimal evidence for a VALID verdict
//	quagmire solve    <file.smt2>              run the built-in SMT solver
//	quagmire corpus   <tiktak|metabook|healthtrack|mini>  print a bundled synthetic policy
//	quagmire corpus   gen -dir <dir> -n <count> [-seed S]  write a synthetic corpus
//	quagmire ingest   -corpus <dir> -data <dir> [-workers N -batch N -json]
//	                                           bulk-ingest a corpus into a store (resumable;
//	                                           reruns re-analyze changed sources as new versions)
//	quagmire store    inspect -data <dir> [-json]  read-only store report: snapshot format,
//	                                           WAL watermark, per-policy versions and payload bytes
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/privacy-quagmire/quagmire"
	"github.com/privacy-quagmire/quagmire/internal/compare"
	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/htmltext"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/report"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "quagmire:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("quagmire", flag.ContinueOnError)
	maxInst := fs.Int("max-instantiations", 0, "SMT quantifier-instantiation budget (0 = default)")
	workers := fs.Int("workers", 0, "extraction and batch-verification parallelism (0 = GOMAXPROCS, 1 = sequential)")
	stats := fs.Bool("stats", false, "print the per-phase metrics breakdown to stderr after the command")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand (analyze|edges|ask|diff|vague|report|check|solve|corpus)")
	}
	ctx := context.Background()
	var p *core.Pipeline
	if pipelineCommands[rest[0]] {
		var err error
		p, err = core.New(core.Options{
			Limits:  smt.Limits{MaxInstantiations: *maxInst},
			Workers: *workers,
		})
		if err != nil {
			return err
		}
		if *stats {
			// stderr keeps the table out of piped stdout consumers.
			defer func() { fmt.Fprint(os.Stderr, p.Metrics().Table()) }()
		}
	}

	switch rest[0] {
	case "analyze":
		a, err := analyzeFile(ctx, p, rest[1:])
		if err != nil {
			return err
		}
		st := a.Stats()
		fmt.Printf("company:     %s\n", a.Extraction.Company)
		fmt.Printf("total nodes: %d\ntotal edges: %d\nentities:    %d\ndata types:  %d\npractices:   %d\n",
			st.Nodes, st.Edges, st.Entities, st.DataTypes, len(a.Extraction.Practices))
		return nil

	case "edges":
		a, err := analyzeFile(ctx, p, rest[1:])
		if err != nil {
			return err
		}
		for _, e := range a.KG.ED.Edges() {
			fmt.Println(e)
		}
		return nil

	case "vague":
		a, err := analyzeFile(ctx, p, rest[1:])
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		for _, pr := range a.Extraction.Practices {
			for _, v := range pr.VagueTerms {
				if !seen[v] {
					seen[v] = true
					fmt.Println(v)
				}
			}
		}
		return nil

	case "ask":
		if len(rest) < 3 {
			return fmt.Errorf("usage: quagmire ask <policy.txt> \"<query>\" [\"<query>\" ...]")
		}
		a, err := analyzeFile(ctx, p, rest[1:2])
		if err != nil {
			return err
		}
		queries := rest[2:]
		if len(queries) == 1 {
			res, err := a.Engine.Ask(ctx, queries[0])
			if err != nil {
				return err
			}
			fmt.Printf("verdict: %s\n", res.Verdict)
			if res.Cause != "" {
				fmt.Printf("cause: %s\n", res.Cause)
			}
			if len(res.ConditionalOn) > 0 {
				fmt.Printf("conditional on: %s\n", strings.Join(res.ConditionalOn, ", "))
			}
			for _, p := range res.Placeholders {
				fmt.Printf("uninterpreted placeholder: %s\n", p)
			}
			for _, e := range res.MatchedEdges {
				fmt.Printf("evidence: %s\n", e)
			}
			return nil
		}
		// Multi-query mode: verify the batch concurrently.
		items, err := a.Engine.AskBatch(ctx, queries)
		if err != nil {
			return err
		}
		failed := 0
		for _, it := range items {
			if it.Err != nil {
				failed++
				fmt.Printf("ERROR    %s (%v)\n", it.Query, it.Err)
				continue
			}
			fmt.Printf("%-8s %s\n", it.Result.Verdict, it.Query)
		}
		cs := p.SMTCacheStats()
		fmt.Printf("smt cache: %d hits / %d misses (%d stampedes suppressed)\n", cs.Hits, cs.Misses, cs.Suppressed)
		if failed > 0 {
			return fmt.Errorf("%d quer(ies) failed", failed)
		}
		return nil

	case "diff":
		if len(rest) != 3 {
			return fmt.Errorf("usage: quagmire diff <old.txt> <new.txt>")
		}
		oldA, err := analyzeFile(ctx, p, rest[1:2])
		if err != nil {
			return err
		}
		newText, err := readPolicy(rest[2])
		if err != nil {
			return err
		}
		// The new version is the old one updated, as a stored policy's
		// next version is: only changed segments are re-extracted.
		newA, d, _, err := p.Update(ctx, oldA, newText)
		if err != nil {
			return err
		}
		fmt.Printf("kept: %d  added: %d  removed: %d  (%.1f%% changed)\n",
			len(d.Kept), len(d.Added), len(d.Removed), 100*d.ChangedFraction())
		for _, s := range d.Added {
			fmt.Printf("+ %s\n", s.Text)
		}
		for _, s := range d.Removed {
			fmt.Printf("- %s\n", s.Text)
		}
		// Practice-level semantic diff: what a text diff cannot classify.
		rep := extract.CompareVersions(oldA.Extraction, newA.Extraction)
		if len(rep.Changes) > 0 {
			fmt.Printf("\npractice-level changes (%d, %d permission flips):\n", len(rep.Changes), rep.PermissionFlips)
			for _, c := range rep.Changes {
				switch c.Kind {
				case "condition-changed":
					fmt.Printf("  ~ %s %s: condition %q -> %q\n", c.Action, c.DataType, c.OldCondition, c.NewCondition)
				default:
					fmt.Printf("  %s %s %s\n", c.Kind, c.Action, c.DataType)
				}
			}
		}
		return nil

	case "dot":
		if len(rest) < 2 {
			return fmt.Errorf("usage: quagmire dot <policy.txt> [graph|data|entity]")
		}
		a, err := analyzeFile(ctx, p, rest[1:2])
		if err != nil {
			return err
		}
		kind := "graph"
		if len(rest) > 2 {
			kind = rest[2]
		}
		switch kind {
		case "graph":
			fmt.Print(a.KG.ED.DOT(a.Extraction.Company + " practices"))
		case "data":
			fmt.Print(a.KG.DataH.DOT(a.Extraction.Company + " data hierarchy"))
		case "entity":
			fmt.Print(a.KG.EntityH.DOT(a.Extraction.Company + " entity hierarchy"))
		default:
			return fmt.Errorf("unknown dot kind %q (graph|data|entity)", kind)
		}
		return nil

	case "report":
		if len(rest) < 2 {
			return fmt.Errorf("usage: quagmire report <policy.txt>")
		}
		a, err := analyzeFile(ctx, p, rest[1:2])
		if err != nil {
			return err
		}
		fmt.Print(report.Render(a, report.Options{IncludeHierarchy: true}))
		return nil

	case "check":
		return runCheck(ctx, rest[1:], p, *workers)

	case "explore":
		if len(rest) < 3 {
			return fmt.Errorf("usage: quagmire explore <policy.txt> \"<query>\"")
		}
		a, err := analyzeFile(ctx, p, rest[1:2])
		if err != nil {
			return err
		}
		exp, err := a.Engine.Explore(ctx, rest[2])
		if err != nil {
			return err
		}
		for _, sc := range exp.Scenarios {
			var parts []string
			for _, ph := range exp.Placeholders {
				parts = append(parts, fmt.Sprintf("%s=%v", ph, sc.Assumptions[ph]))
			}
			if sc.Cause != "" {
				parts = append(parts, "(cause: "+sc.Cause+")")
			}
			fmt.Printf("%-8s %s\n", sc.Verdict, strings.Join(parts, " "))
		}
		fmt.Printf("always valid: %v  never valid: %v\n", exp.AlwaysValid, exp.NeverValid)
		return nil

	case "explain":
		if len(rest) < 3 {
			return fmt.Errorf("usage: quagmire explain <policy.txt> \"<query>\"")
		}
		a, err := analyzeFile(ctx, p, rest[1:2])
		if err != nil {
			return err
		}
		expl, err := a.Engine.ExplainQuestion(ctx, rest[2])
		if err != nil {
			return err
		}
		fmt.Printf("verdict: %s (%d solver calls)\n", expl.Verdict, expl.SolverCalls)
		for _, ev := range expl.Evidence {
			fmt.Printf("evidence: %s\n", ev)
		}
		return nil

	case "compare":
		if len(rest) != 3 {
			return fmt.Errorf("usage: quagmire compare <policyA.txt> <policyB.txt>")
		}
		textA, err := readPolicy(rest[1])
		if err != nil {
			return err
		}
		textB, err := readPolicy(rest[2])
		if err != nil {
			return err
		}
		aA, err := p.Analyze(ctx, textA)
		if err != nil {
			return err
		}
		aB, err := p.Analyze(ctx, textB)
		if err != nil {
			return err
		}
		comparer := &compare.Comparer{Model: quagmire.EmbeddingModel(), Client: llm.NewCachingClient(llm.NewSim())}
		rep := comparer.Compare(aA.KG, aB.KG)
		fmt.Printf("%s vs %s: %d shared practices\n", rep.CompanyA, rep.CompanyB, rep.Shared)
		fmt.Printf("\nonly in %s (%d):\n", rep.CompanyA, len(rep.OnlyA))
		for _, g := range rep.OnlyA {
			fmt.Printf("  %s %s\n", g.Action, g.DataType)
		}
		fmt.Printf("\nonly in %s (%d):\n", rep.CompanyB, len(rep.OnlyB))
		for _, g := range rep.OnlyB {
			fmt.Printf("  %s %s\n", g.Action, g.DataType)
		}
		return nil

	case "solve":
		if len(rest) != 2 {
			return fmt.Errorf("usage: quagmire solve <file.smt2>")
		}
		src, err := os.ReadFile(rest[1])
		if err != nil {
			return err
		}
		results, err := smt.RunScript(string(src), smt.Limits{MaxInstantiations: *maxInst})
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Print(smt.FormatResult(r))
		}
		return nil

	case "ingest":
		return runIngest(ctx, rest[1:], *maxInst)

	case "store":
		return runStore(rest[1:])

	case "corpus":
		if len(rest) >= 2 && rest[1] == "gen" {
			return runCorpusGen(rest[2:])
		}
		if len(rest) != 2 {
			return fmt.Errorf("usage: quagmire corpus <tiktak|metabook|mini> | quagmire corpus gen -dir <dir> -n <count>")
		}
		switch rest[1] {
		case "tiktak":
			fmt.Print(corpus.TikTak())
		case "metabook":
			fmt.Print(corpus.MetaBook())
		case "healthtrack":
			fmt.Print(corpus.HealthTrack())
		case "mini":
			fmt.Print(corpus.Mini())
		default:
			return fmt.Errorf("unknown corpus %q", rest[1])
		}
		return nil

	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

// pipelineCommands are the subcommands that run the analysis pipeline.
// Each runs on one pipeline built from the global flags, and -stats
// prints that pipeline's metrics after any of them.
var pipelineCommands = map[string]bool{
	"analyze": true, "edges": true, "vague": true, "ask": true, "dot": true, "report": true,
	"check": true, "explore": true, "explain": true, "compare": true, "diff": true,
}

// analyzeFile analyzes the policy file args[0] names on p.
func analyzeFile(ctx context.Context, p *core.Pipeline, args []string) (*core.Analysis, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("missing policy file")
	}
	text, err := readPolicy(args[0])
	if err != nil {
		return nil, err
	}
	return p.Analyze(ctx, text)
}

// readPolicy loads a policy file, converting HTML pages to pipeline text.
func readPolicy(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	text := string(data)
	lowerPath := strings.ToLower(path)
	trimmed := strings.TrimSpace(text)
	if strings.HasSuffix(lowerPath, ".html") || strings.HasSuffix(lowerPath, ".htm") ||
		strings.HasPrefix(strings.ToLower(trimmed), "<!doctype") || strings.HasPrefix(trimmed, "<html") {
		return htmltext.Extract(text), nil
	}
	return text, nil
}
