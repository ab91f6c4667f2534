package smt

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/smtlib"
)

// RunScript executes an SMT-LIB v2 script on one solver and returns one
// Result per check-sat / check-sat-assuming command, in order. push/pop
// manage assertion scopes as in the standard, and check-sat-assuming
// assumes its literals for that check only. A script without checks
// yields no results.
func RunScript(src string, limits Limits) ([]Result, error) {
	return RunScriptCtx(context.Background(), src, limits)
}

// RunScriptCtx is RunScript with cancellation: each check polls the
// context inside its instantiation and refinement loops, so a cancelled
// caller stops burning CPU promptly. Once the context is done the
// remaining assert, push and pop commands are skipped, and checks reached
// after cancellation report Unknown with reason "canceled".
func RunScriptCtx(ctx context.Context, src string, limits Limits) ([]Result, error) {
	prob, err := smtlib.DecodeScript(src)
	if err != nil {
		return nil, err
	}
	return runProblem(ctx, prob, limits), nil
}

// runProblem replays a decoded script's commands on one solver (see
// RunScriptCtx).
func runProblem(ctx context.Context, prob *smtlib.Problem, limits Limits) []Result {
	solver := NewSolver()
	solver.Limits = limits
	var results []Result
	for _, cmd := range prob.Commands {
		if cmd.Kind != smtlib.CmdCheckSat && ctx.Err() != nil {
			continue
		}
		switch cmd.Kind {
		case smtlib.CmdAssert:
			solver.Assert(cmd.Formula)
		case smtlib.CmdPush:
			for i := 0; i < cmd.Levels; i++ {
				solver.Push()
			}
		case smtlib.CmdPop:
			for i := 0; i < cmd.Levels; i++ {
				solver.Pop()
			}
		case smtlib.CmdCheckSat:
			results = append(results, solver.CheckSatAssumingCtx(ctx, cmd.Assume...))
		}
	}
	return results
}

// FormatResult renders a result in solver-output style: the status line
// followed by ;; comment lines for reason and placeholders, mirroring what
// the paper's tooling logs for each query.
func FormatResult(r Result) string {
	var b strings.Builder
	b.WriteString(r.Status.String())
	b.WriteByte('\n')
	if r.Reason != "" {
		fmt.Fprintf(&b, ";; reason: %s\n", r.Reason)
	}
	for _, p := range r.Placeholders {
		fmt.Fprintf(&b, ";; uninterpreted placeholder: %s\n", p)
	}
	if r.Model != nil {
		names := make([]string, 0, len(r.Model))
		for n := range r.Model {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, ";; model: %s = %v\n", n, r.Model[n])
		}
	}
	return b.String()
}
