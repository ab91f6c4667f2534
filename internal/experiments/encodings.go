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

// EncodingRow is one question's compiled script solved under one subtype
// encoding (E21): the paper's quantified reflexivity and transitivity
// axioms under full grounding or under trigger-based instantiation
// (ablation A4), or the closure facts the engine serves, where the
// taxonomy's ancestor pairs stand in for transitivity, under full
// grounding or under the served default, relevant grounding.
type EncodingRow struct {
	// Policy is the corpus name.
	Policy string
	// Mode is "subgraph" or "whole-policy".
	Mode string
	// Encoding names the subtype encoding and instantiation strategy.
	Encoding string
	// FormulaSize is the FOL node count of the served formula.
	FormulaSize int
	// Verdict is the query outcome the script's checks map to.
	Verdict query.Verdict
	// Reason explains an UNKNOWN main check.
	Reason string
	// Instantiations counts quantifier instances over all the checks.
	Instantiations int
	// Elapsed is the wall-clock time of the script's checks.
	Elapsed time.Duration
}

// encodingVariant is one way of solving a served script.
type encodingVariant struct {
	name     string
	paper    bool // assert the paper's transitivity axiom
	strategy smt.InstStrategy
	served   bool // the engine's own encoding and strategy
}

var encodingVariants = []encodingVariant{
	{"paper axioms, full grounding", true, smt.FullGrounding, false},
	{"paper axioms, triggers (A4)", true, smt.TriggerBased, false},
	{"closure facts, full grounding", false, smt.FullGrounding, false},
	{"closure facts (served)", false, smt.RelevantGrounding, true},
}

// encodingQuestions are the per-policy questions of the §4.4 runs.
func encodingQuestions() []struct{ name, text, q string } {
	return []struct{ name, text, q string }{
		{"TikTak", corpus.TikTak(), "Does TikTak share my email address with advertising partners?"},
		{"MetaBook", corpus.MetaBook(), "Does MetaBook collect my payment information?"},
	}
}

// EncodingComparison asks each corpus policy its §4.4 question in
// subgraph or whole-policy mode and solves the compiled script under every
// encoding variant with the given limits.
func EncodingComparison(ctx context.Context, whole bool, limits smt.Limits) ([]EncodingRow, error) {
	p, err := core.New(core.Options{Limits: limits})
	if err != nil {
		return nil, err
	}
	mode := "subgraph"
	if whole {
		mode = "whole-policy"
	}
	var rows []EncodingRow
	for _, pol := range encodingQuestions() {
		a, err := p.Analyze(ctx, pol.text)
		if err != nil {
			return nil, err
		}
		a.Engine.WholePolicy = whole
		res, err := a.Engine.Ask(ctx, pol.q)
		if err != nil {
			return nil, err
		}
		prob, err := smtlib.DecodeScript(res.Script)
		if err != nil {
			return nil, err
		}
		for _, v := range encodingVariants {
			start := time.Now()
			results := solveVariant(prob, v, limits)
			verdict, _, _ := query.Decide(results)
			row := EncodingRow{
				Policy: pol.name, Mode: mode, Encoding: v.name,
				FormulaSize: res.FormulaSize, Verdict: verdict,
				Reason: results[0].Reason, Elapsed: time.Since(start),
			}
			for _, r := range results {
				row.Instantiations += r.Stats.Instantiations
			}
			if v.served && row.Verdict != res.Verdict {
				return nil, fmt.Errorf("experiments: %s %s: replayed script says %s, engine %s", pol.name, mode, row.Verdict, res.Verdict)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// solveVariant replays a decoded query script on one solver with the
// variant's strategy. The paper variants assert transitivity right after
// the script's first assertion, the policy.
func solveVariant(prob *smtlib.Problem, v encodingVariant, limits smt.Limits) []smt.Result {
	s := smt.NewSolver()
	s.Limits = limits
	s.Strategy = v.strategy
	var results []smt.Result
	asserted := false
	for _, cmd := range prob.Commands {
		switch cmd.Kind {
		case smtlib.CmdAssert:
			s.Assert(cmd.Formula)
			if v.paper && !asserted {
				s.Assert(subtypeTransitivity())
			}
			asserted = true
		case smtlib.CmdPush:
			for i := 0; i < cmd.Levels; i++ {
				s.Push()
			}
		case smtlib.CmdPop:
			for i := 0; i < cmd.Levels; i++ {
				s.Pop()
			}
		case smtlib.CmdCheckSat:
			results = append(results, s.CheckSatAssuming(cmd.Assume...))
		}
	}
	return results
}

// subtypeTransitivity is the paper encoding's
// ∀x,y,z. subtype(x,y) ∧ subtype(y,z) → subtype(x,z).
func subtypeTransitivity() *fol.Formula {
	return fol.Forall("x", fol.Forall("y", fol.Forall("z",
		fol.Implies(
			fol.And(
				fol.Pred("subtype", fol.Var("x"), fol.Var("y")),
				fol.Pred("subtype", fol.Var("y"), fol.Var("z")),
			),
			fol.Pred("subtype", fol.Var("x"), fol.Var("z")),
		))))
}

// RenderEncodings renders encoding rows.
func RenderEncodings(rows []EncodingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-13s %-30s %12s %8s %14s %10s  %s\n",
		"Policy", "Mode", "Encoding", "FormulaSize", "Verdict", "Instantiated", "Elapsed", "Reason")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-13s %-30s %12d %8s %14d %10s  %s\n",
			r.Policy, r.Mode, r.Encoding, r.FormulaSize, r.Verdict, r.Instantiations,
			r.Elapsed.Round(100*time.Microsecond), r.Reason)
	}
	return b.String()
}
