package query

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// deadlineProbe checks that one path on a warmed engine stops at its
// deadline on any host. It first times the path without one: after a
// warm-up run, the fastest of three runs, each stopped at a 400 ms
// ceiling. A path that finishes in under 20 ms is too short to probe, and
// the test fails: give it a larger input. Then it runs the
// path under two thirds of that time and requires an error wrapping
// context.DeadlineExceeded within 1.5× the deadline, so no later than the
// fastest untimed run finished.
func deadlineProbe(t *testing.T, e *Engine, question string, path func(context.Context, llm.ParamSet) error) {
	t.Helper()
	const ceiling, shortest = 400 * time.Millisecond, 20 * time.Millisecond
	e.Warm()
	p, err := e.parseQuery(context.Background(), question)
	if err != nil {
		t.Fatal(err)
	}
	untimed := ceiling
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), ceiling)
		start := time.Now()
		_ = path(ctx, p) // an answer, a refusal or the ceiling: only the time counts
		elapsed := time.Since(start)
		cancel()
		if i > 0 { // the first run warms the path up
			untimed = min(untimed, elapsed)
		}
	}
	if untimed < shortest {
		t.Fatalf("the path finishes in %v without a deadline, too fast to probe one", untimed)
	}
	deadline := untimed * 2 / 3
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err = path(ctx, p)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("after %v under a %v deadline: err = %v, want context.DeadlineExceeded", elapsed, deadline, err)
	}
	if elapsed > deadline*3/2 {
		t.Errorf("stopped after %v, want within %v of a %v deadline (untimed %v)", elapsed, deadline*3/2, deadline, untimed)
	}
	t.Logf("untimed %v; stopped after %v under a %v deadline", untimed, elapsed, deadline)
}

// TestExplainStopsAtDeadline: MetaBook's whole-policy question is VALID,
// and Explain shrinks its evidence by deletion, one whole-policy solve per
// edge, for far longer than the probe's ceiling; under a deadline Explain
// stops there and says so, instead of solving on.
func TestExplainStopsAtDeadline(t *testing.T) {
	e := engineFor(t, corpus.MetaBook())
	e.WholePolicy = true
	deadlineProbe(t, e, "Does MetaBook collect my payment information?", func(ctx context.Context, p llm.ParamSet) error {
		_, err := e.ExplainValid(ctx, p)
		return err
	})
}

// TestExploreStopsAtDeadline: MetaBook's whole-policy question, with every
// condition but six cleared from the graph's edges, so that it has six
// vague conditions, the exploration cap. One exploration of its 3,700
// edges takes tens of milliseconds, a span this host's scheduling noise
// can double; the path explores it six times over, so the probe's margin
// of a third of the untimed time is far wider than that noise. Each
// exploration checks its context before and after encoding and returns
// as soon as it ends while solving.
func TestExploreStopsAtDeadline(t *testing.T) {
	e := engineFor(t, corpus.MetaBook())
	e.WholePolicy = true
	kept := map[string]bool{}
	for _, ed := range e.KG.ED.Edges() {
		if ed.Condition == "" || kept[ed.Condition] {
			continue
		}
		if len(kept) < MaxExplorePlaceholders {
			kept[ed.Condition] = true
		} else {
			ed.Condition = ""
		}
	}
	deadlineProbe(t, e, "Does MetaBook collect my payment information?", func(ctx context.Context, p llm.ParamSet) error {
		for i := 0; i < 6; i++ {
			exp, err := e.ExploreConditions(ctx, p)
			if err != nil {
				return err
			}
			if len(exp.Placeholders) != MaxExplorePlaceholders {
				t.Errorf("explored %d placeholders, want %d", len(exp.Placeholders), MaxExplorePlaceholders)
			}
		}
		return nil
	})
}

// pathAnswers is what Ask, Explore and Explain say about one question.
type pathAnswers struct {
	Ask     string
	Explore string
	Explain string
}

// answerEveryPath asks q through Ask, Explore and Explain on e.
func answerEveryPath(ctx context.Context, e *Engine, q string) (pathAnswers, error) {
	var out pathAnswers
	res, err := e.Ask(ctx, q)
	if err != nil {
		return out, err
	}
	out.Ask = fmt.Sprintf("%s %q %v %s", res.Verdict, res.Cause, res.ConditionalOn, res.Script)
	exp, err := e.Explore(ctx, q)
	if err != nil {
		return out, err
	}
	for _, sc := range exp.Scenarios {
		out.Explore += fmt.Sprintf("%v=%s/%s ", sc.Assumptions, sc.Verdict, sc.Cause)
	}
	if ex, err := e.ExplainQuestion(ctx, q); err != nil {
		out.Explain = "refused: " + err.Error()
	} else {
		out.Explain = fmt.Sprintf("%v %d", ex.Evidence, ex.SolverCalls)
	}
	return out, nil
}

// TestPathsShareResultCache asks every question through Ask, Explore and
// Explain from several goroutines on one engine. The three paths share the
// engine's result cache and its single-flight path: every answer equals a
// sequential run's, and every distinct script is solved exactly once, as
// many times as a sequential run solves it.
func TestPathsShareResultCache(t *testing.T) {
	ctx := context.Background()
	questions := []string{
		"Does TikTak share my email address with advertising partners?",
		"Does TikTak share my usage data with service providers?",
		"Does TikTak sell my personal information?",
		"Does TikTak collect my device information?",
	}
	cached := func() *Engine {
		e := newEngine(t)
		e.Cache = smt.NewResultCache(0)
		return e
	}

	seq := cached()
	want := map[string]pathAnswers{}
	for _, q := range questions {
		a, err := answerEveryPath(ctx, seq, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want[q] = a
	}
	if seq.Cache.Stats().Hits == 0 {
		t.Error("no path reused another's cached script (Explain starts from Ask's)")
	}

	const goroutines = 6
	shared := cached()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(questions))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range questions {
				q := questions[(i+g)%len(questions)]
				got, err := answerEveryPath(ctx, shared, q)
				if err != nil {
					errs <- fmt.Errorf("%q: %w", q, err)
				} else if !reflect.DeepEqual(got, want[q]) {
					errs <- fmt.Errorf("%q: concurrent %+v, sequential %+v", q, got, want[q])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, w := shared.Cache.Stats().Misses, seq.Cache.Stats().Misses; got != w {
		t.Errorf("concurrent paths solved %d scripts, a sequential run %d distinct ones", got, w)
	}
}
