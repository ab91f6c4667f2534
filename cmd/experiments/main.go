// Command experiments regenerates every table and evaluation claim of the
// paper. Each -exp value corresponds to one row of the experiment index in
// DESIGN.md; -exp all runs the full battery and prints paper-vs-measured
// tables suitable for EXPERIMENTS.md.
//
// Usage:
//
//	experiments -exp table1|table2|table3|similarity|scaling|smt|incremental|contradictions|verdicts|smtlib|domains|wholepolicy|scenarios|recovery|boot|all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/privacy-quagmire/quagmire/internal/experiments"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	flag.Parse()
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(exp string) error {
	ctx := context.Background()
	all := exp == "all"

	if all || exp == "table1" {
		fmt.Println("== Table 1: extraction statistics ==")
		rows, err := experiments.Table1(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable1(append(experiments.PaperTable1(), rows...)))
		fmt.Println()
	}
	if all || exp == "table2" {
		fmt.Println("== Table 2: TikTak statement decomposition ==")
		rows, err := experiments.Table2(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDecomp(rows))
		fmt.Println()
	}
	if all || exp == "table3" {
		fmt.Println("== Table 3: MetaBook statement decomposition ==")
		rows, err := experiments.Table3(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDecomp(rows))
		fmt.Println()
	}
	if all || exp == "similarity" {
		fmt.Println("== E1: embedding similarity claims (§4.2) ==")
		fmt.Print(experiments.RenderSimilarity(experiments.SimilarityClaims()))
		fmt.Println()
	}
	if all || exp == "scaling" {
		fmt.Println("== E2: extraction scaling with policy size ==")
		rows, err := experiments.ScalingSweep(ctx, []int{50, 100, 200, 400, 800})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderScaling(rows))
		fmt.Println()
	}
	if all || exp == "smt" {
		fmt.Println("== E3: SMT solver clause-count sweep (timeout behaviour) ==")
		limits := smt.Limits{MaxInstantiations: 20000, MaxSatSteps: 2_000_000, MaxRounds: 2}
		rows := experiments.SMTSweep([]int{2, 5, 10, 25, 50, 100, 200, 400}, limits)
		fmt.Print(experiments.RenderSMT(rows))
		fmt.Println()
	}
	if all || exp == "incremental" {
		fmt.Println("== E4: incremental update cost vs edit fraction ==")
		rows, err := experiments.IncrementalSweep(ctx, []float64{0.01, 0.05, 0.10, 0.25, 0.50})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderIncremental(rows))
		fmt.Println()
	}
	if all || exp == "contradictions" {
		fmt.Println("== E5: PolicyLint-style apparent contradictions ==")
		sum, err := experiments.Contradictions(ctx, 40)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderLint(sum))
		fmt.Println()
	}
	if all || exp == "verdicts" {
		fmt.Println("== E6: end-to-end verdict mapping (unsat⇒VALID, sat⇒INVALID) ==")
		rows, err := experiments.Verdicts(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderVerdicts(rows))
		fmt.Println()
	}
	if all || exp == "smtlib" {
		fmt.Println("== §4.4: valid SMT-LIB generated for both policies ==")
		lines, err := experiments.SMTLIBValidity(ctx)
		if err != nil {
			return err
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		fmt.Println()
		fmt.Println("== E21: subtype encodings on the §4.4 questions (subgraph mode, default limits) ==")
		rows, err := experiments.EncodingComparison(ctx, false, smt.Limits{})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderEncodings(rows))
		fmt.Println()
	}
	if all || exp == "domains" {
		fmt.Println("== E7: cross-domain generalization (consumer vs clinical) ==")
		rows, err := experiments.Domains(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDomains(rows))
		fmt.Println()
	}
	if all || exp == "fleet" {
		fmt.Println("== MAPS-style fleet aggregation (related-work comparison) ==")
		rows, denySale, vagueRate, err := experiments.Fleet(ctx, 25)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFleet(rows, denySale, vagueRate))
		fmt.Println()
	}
	if all || exp == "wholepolicy" {
		fmt.Println("== A3 context: subgraph vs whole-policy encoding ==")
		limits := smt.Limits{MaxInstantiations: 20000}
		rows, err := experiments.WholePolicyComparison(ctx, limits)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderWholePolicy(rows))
		fmt.Println()
		fmt.Println("== E21: subtype encodings, whole-policy mode ==")
		enc, err := experiments.EncodingComparison(ctx, true, limits)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderEncodings(enc))
		fmt.Println()
	}
	if all || exp == "scenarios" {
		fmt.Println("== E14: compliance-as-code suite throughput (per-ask subgraph, 1 vs 4 workers) ==")
		rows, err := experiments.ScenarioThroughput(ctx, 24)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderScenarios(rows))
		fmt.Println()
	}
	if all || exp == "recovery" {
		fmt.Println("== E12: policy store crash recovery (WAL replay + engine rebuild) ==")
		rows, err := experiments.RecoverySweep(ctx, []int{1, 5, 10, 25, 50})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderRecovery(rows))
		fmt.Println()
	}
	if all || exp == "boot" {
		fmt.Println("== E17: cold-boot cost (WAL replay vs indexed v2 open vs eager decode) ==")
		counts := []int{25, 100}
		if exp == "boot" {
			counts = []int{100, 1000}
		}
		rows, err := experiments.BootSweep(ctx, counts)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderBoot(rows))
		fmt.Println()
	}
	return nil
}
