package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/fol"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/smt"
	"github.com/privacy-quagmire/quagmire/internal/smtlib"
)

// SMTRow is one point of the solver clause-count sweep (E3), the paper's
// headline negative result: "solver timeouts occur when formulas contain
// hundreds of clauses even for single queries".
type SMTRow struct {
	// Edges is the number of policy edges encoded.
	Edges int
	// Clauses is the ground clause count the solver saw.
	Clauses int
	// FormulaSize is the FOL node count before clausification.
	FormulaSize int
	// Status is the solver outcome.
	Status smt.Status
	// Reason explains Unknown outcomes.
	Reason string
	// Instantiations counts quantifier instances generated.
	Instantiations int
	// Elapsed is wall-clock solve time.
	Elapsed time.Duration
}

// SMTSweep encodes pipeline-style formulas over growing numbers of policy
// edges (each with the quantified subtype axioms the encoding requires)
// and solves them under fixed resource limits. Small encodings solve;
// large ones exhaust the budget — the paper's timeout behaviour, made
// deterministic through step-counted limits.
func SMTSweep(edgeCounts []int, limits smt.Limits) []SMTRow {
	return SMTSweepStrategy(edgeCounts, limits, smt.FullGrounding)
}

// SMTSweepStrategy is SMTSweep with an explicit instantiation strategy
// (ablation A4: full grounding vs trigger-based E-matching vs the served
// relevant grounding).
func SMTSweepStrategy(edgeCounts []int, limits smt.Limits, strategy smt.InstStrategy) []SMTRow {
	var rows []SMTRow
	for _, n := range edgeCounts {
		formula := syntheticPolicyFormula(n)
		solver := smt.NewSolver()
		solver.Limits = limits
		solver.Strategy = strategy
		solver.Assert(formula)
		start := time.Now()
		res := solver.CheckSat()
		rows = append(rows, SMTRow{
			Edges:          n,
			Clauses:        res.Stats.GroundClauses,
			FormulaSize:    formula.Size(),
			Status:         res.Status,
			Reason:         res.Reason,
			Instantiations: res.Stats.Instantiations,
			Elapsed:        time.Since(start),
		})
	}
	return rows
}

// syntheticPolicyFormula builds the paper's encoding shape for n edges:
// practice facts over distinct constants, conditional implications with
// uninterpreted vague predicates, parent subtype facts, the quantified
// reflexivity/transitivity axioms, and a negated existential goal. It
// emits parent pairs only, not the closure, so unlike the served encoding
// it needs transitivity, and it keeps showing the grounding blow-up.
func syntheticPolicyFormula(n int) *fol.Formula {
	var axioms []*fol.Formula
	for i := 0; i < n; i++ {
		atom := fol.Pred("practice",
			fol.Const("company"),
			fol.Const(fmt.Sprintf("action_%d", i%8)),
			fol.Const(fmt.Sprintf("data_%d", i)),
			fol.Const(fmt.Sprintf("party_%d", i%16)),
		)
		if i%3 == 0 {
			axioms = append(axioms, fol.Implies(
				fol.UninterpretedPred(fmt.Sprintf("cond_vague_%d", i%5)), atom))
		} else {
			axioms = append(axioms, atom)
		}
		if i > 0 {
			axioms = append(axioms, fol.Pred("subtype",
				fol.Const(fmt.Sprintf("data_%d", i)),
				fol.Const(fmt.Sprintf("data_%d", i/2))))
		}
	}
	axioms = append(axioms,
		fol.Forall("x", fol.Pred("subtype", fol.Var("x"), fol.Var("x"))),
		subtypeTransitivity(),
	)
	goal := fol.Exists("d", fol.And(
		fol.Pred("subtype", fol.Var("d"), fol.Const("data_0")),
		fol.Exists("o", fol.Pred("practice", fol.Const("company"), fol.Const("action_0"), fol.Var("d"), fol.Var("o"))),
	))
	return fol.And(fol.And(axioms...), fol.Not(goal))
}

// RenderSMT renders sweep rows.
func RenderSMT(rows []SMTRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %10s %13s %10s %14s %12s  %s\n", "Edges", "Clauses", "FormulaSize", "Status", "Instantiated", "Elapsed", "Reason")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %10d %13d %10s %14d %12s  %s\n",
			r.Edges, r.Clauses, r.FormulaSize, r.Status, r.Instantiations,
			r.Elapsed.Round(time.Millisecond), r.Reason)
	}
	return b.String()
}

// WholePolicyRow compares subgraph-scoped against whole-policy encoding of
// the same query (ablation A3 context and the §4.4 bottleneck claim).
type WholePolicyRow struct {
	// Mode is "subgraph" or "whole-policy".
	Mode string
	// FormulaSize is the FOL node count.
	FormulaSize int
	// Verdict is the query outcome.
	Verdict query.Verdict
	// Elapsed is wall-clock time.
	Elapsed time.Duration
}

// WholePolicyComparison runs one query against the TikTak analysis in
// subgraph mode and whole-policy mode.
func WholePolicyComparison(ctx context.Context, limits smt.Limits) ([]WholePolicyRow, error) {
	p, err := core.New(core.Options{Limits: limits})
	if err != nil {
		return nil, err
	}
	a, err := p.Analyze(ctx, corpus.TikTak())
	if err != nil {
		return nil, err
	}
	q := "Does TikTak share my email address with advertising partners?"
	var rows []WholePolicyRow
	for _, mode := range []struct {
		name  string
		whole bool
	}{{"subgraph", false}, {"whole-policy", true}} {
		a.Engine.WholePolicy = mode.whole
		start := time.Now()
		res, err := a.Engine.Ask(ctx, q)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WholePolicyRow{
			Mode: mode.name, FormulaSize: res.FormulaSize,
			Verdict: res.Verdict, Elapsed: time.Since(start),
		})
	}
	return rows, nil
}

// RenderWholePolicy renders comparison rows.
func RenderWholePolicy(rows []WholePolicyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %13s %10s %12s\n", "Mode", "FormulaSize", "Verdict", "Elapsed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %13d %10s %12s\n", r.Mode, r.FormulaSize, r.Verdict, r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// SMTLIBValidity confirms the §4.4 claim that valid SMT-LIB is generated
// for both policies: it compiles one query per policy and re-parses the
// script.
func SMTLIBValidity(ctx context.Context) ([]string, error) {
	p, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pol := range []struct{ name, text, q string }{
		{"TikTak", corpus.TikTak(), "Does TikTak share my email address with advertising partners?"},
		{"MetaBook", corpus.MetaBook(), "Does MetaBook collect my payment information?"},
	} {
		a, err := p.Analyze(ctx, pol.text)
		if err != nil {
			return nil, err
		}
		res, err := a.Engine.Ask(ctx, pol.q)
		if err != nil {
			return nil, err
		}
		if _, err := smtlib.DecodeScript(res.Script); err != nil {
			return nil, fmt.Errorf("experiments: %s generated invalid SMT-LIB: %w", pol.name, err)
		}
		out = append(out, fmt.Sprintf("%s: valid SMT-LIB (%d bytes, %d placeholders, verdict %s)",
			pol.name, len(res.Script), len(res.Placeholders), res.Verdict))
	}
	return out, nil
}
