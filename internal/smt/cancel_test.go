package smt

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/fol"
)

// bigQuantifiedProblem builds ∀x,y,z-style clauses over many constants so
// full grounding enumerates a large odometer space — plenty of ctx polls.
func bigQuantifiedProblem(constants int) *fol.Formula {
	trans := fol.Forall("x", fol.Forall("y", fol.Forall("z",
		fol.Implies(
			fol.And(
				fol.Pred("subtype", fol.Var("x"), fol.Var("y")),
				fol.Pred("subtype", fol.Var("y"), fol.Var("z")),
			),
			fol.Pred("subtype", fol.Var("x"), fol.Var("z")),
		))))
	parts := []*fol.Formula{trans}
	for i := 0; i < constants; i++ {
		parts = append(parts, fol.Pred("subtype",
			fol.Const(fmt.Sprintf("c%d", i)), fol.Const(fmt.Sprintf("c%d", (i+1)%constants))))
	}
	return fol.And(parts...)
}

func TestCheckSatCtxPreCanceledReturnsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSolver()
	s.Assert(bigQuantifiedProblem(10))
	res := s.CheckSatCtx(ctx)
	if res.Status != Unknown {
		t.Fatalf("status = %v, want Unknown", res.Status)
	}
	if res.Reason != canceledReason {
		t.Errorf("reason = %q, want %q", res.Reason, canceledReason)
	}
	if res.Stats.Instantiations != 0 {
		t.Errorf("pre-cancelled check still instantiated %d clauses", res.Stats.Instantiations)
	}
}

// countdownCtx reports Canceled after its Err budget is exhausted — a
// deterministic stand-in for "the context was cancelled mid-solve". The
// solver polls Err inside its hot loops, so the countdown lands inside
// the instantiation odometer without any timing dependence.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestCheckSatCtxCancelMidInstantiation(t *testing.T) {
	// Uncancelled baseline: the same problem needs many instantiations.
	base := NewSolver()
	base.Assert(bigQuantifiedProblem(8)) // 8^3 = 512 transitivity instances
	full := base.CheckSat()
	if full.Stats.Instantiations < 100 {
		t.Fatalf("baseline too small to be meaningful: %d instantiations", full.Stats.Instantiations)
	}

	ctx := &countdownCtx{Context: context.Background()}
	ctx.polls.Store(50)
	s := NewSolver()
	s.Assert(bigQuantifiedProblem(8))
	res := s.CheckSatCtx(ctx)
	if res.Status != Unknown || res.Reason != canceledReason {
		t.Fatalf("mid-solve cancel: status %v reason %q, want Unknown %q", res.Status, res.Reason, canceledReason)
	}
	if res.Stats.Instantiations >= full.Stats.Instantiations {
		t.Errorf("cancelled solve ran to completion: %d instantiations (full run: %d)",
			res.Stats.Instantiations, full.Stats.Instantiations)
	}
}

func TestCheckSatCtxCancelMidTriggerInstantiation(t *testing.T) {
	// The trigger literal collect(x, y) binds both variables, so E-matching
	// enumerates every ground collect fact — one ctx poll per candidate.
	rule := fol.Forall("x", fol.Forall("y",
		fol.Implies(
			fol.Pred("collect", fol.Var("x"), fol.Var("y")),
			fol.Pred("disclosed", fol.Var("x"), fol.Var("y")),
		)))
	parts := []*fol.Formula{rule}
	for i := 0; i < 40; i++ {
		parts = append(parts, fol.Pred("collect",
			fol.Const(fmt.Sprintf("a%d", i)), fol.Const(fmt.Sprintf("d%d", i))))
	}
	ctx := &countdownCtx{Context: context.Background()}
	ctx.polls.Store(5)
	s := NewSolver()
	s.Strategy = TriggerBased
	s.Assert(fol.And(parts...))
	res := s.CheckSatCtx(ctx)
	if res.Status != Unknown || res.Reason != canceledReason {
		t.Fatalf("trigger-based cancel: status %v reason %q, want Unknown %q", res.Status, res.Reason, canceledReason)
	}
}

func TestRunScriptCtxCanceledChecks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunScriptCtx(ctx, satScript, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	if results[0].Status != Unknown || results[0].Reason != canceledReason {
		t.Errorf("cancelled script check = %v %q, want Unknown %q",
			results[0].Status, results[0].Reason, canceledReason)
	}
}

func TestRunScriptCachedCtxDoesNotCacheCanceledSolves(t *testing.T) {
	c := NewResultCache(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runCached(ctx, c, satScript, Limits{}); err == nil {
		t.Fatal("cancelled cached solve should surface ctx error")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled result was cached: %+v", st)
	}
	// A later call with a live context must get a real answer.
	res, err := runCached(context.Background(), c, satScript, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Status != Sat {
		t.Fatalf("results = %+v, want one sat", res)
	}
	if res[0].Stats.FromCache {
		t.Error("fresh solve after cancellation must not be marked FromCache")
	}
}

// TestCheckSatReportsElapsed is the regression test for the stamp-via-defer
// bug: check() had an unnamed result, so its deferred
// "res.Stats.Elapsed = time.Since(start)" mutated a dead local and every
// non-cached Result reported Elapsed == 0 — making cache-hit lookup times
// indistinguishable from real solves and zeroing the solve-latency
// histogram.
func TestCheckSatReportsElapsed(t *testing.T) {
	s := NewSolver()
	s.Assert(bigQuantifiedProblem(12))
	res := s.CheckSat()
	if res.Stats.Instantiations == 0 {
		t.Fatal("problem too small to exercise the solver")
	}
	if res.Stats.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0 for a real solve", res.Stats.Elapsed)
	}
}
