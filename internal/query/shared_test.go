package query

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// deadlineProbe runs one path on a warmed engine under a 100 ms deadline
// and requires it to stop there: an error wrapping
// context.DeadlineExceeded within 1.5× the deadline. A machine fast
// enough to finish before the deadline, with an answer or a refusal,
// passes trivially.
func deadlineProbe(t *testing.T, e *Engine, question string, path func(context.Context, llm.ParamSet) error) {
	t.Helper()
	const deadline = 100 * time.Millisecond
	e.Warm()
	p, err := e.parseQuery(context.Background(), question)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err = path(ctx, p)
	elapsed := time.Since(start)
	if elapsed < deadline && !errors.Is(err, context.DeadlineExceeded) {
		t.Logf("finished in %v, before the deadline (err = %v)", elapsed, err)
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("after %v: err = %v, want context.DeadlineExceeded", elapsed, err)
	}
	if elapsed > deadline*3/2 {
		t.Errorf("stopped after %v, want within %v of a %v deadline", elapsed, deadline*3/2, deadline)
	}
	t.Logf("stopped after %v", elapsed)
}

// TestExplainStopsAtDeadline: MetaBook's whole-policy question runs into
// the instantiation budget after several hundred milliseconds; under a
// 100 ms deadline Explain stops at the deadline and says so, instead of
// solving on and blaming the budget.
func TestExplainStopsAtDeadline(t *testing.T) {
	e := engineFor(t, corpus.MetaBook())
	e.WholePolicy = true
	deadlineProbe(t, e, "Does MetaBook collect my payment information?", func(ctx context.Context, p llm.ParamSet) error {
		_, err := e.ExplainValid(ctx, p)
		return err
	})
}

// TestExploreStopsAtDeadline: a generated policy whose whole-policy
// question has six vague conditions, the exploration cap, and grounds for
// a few hundred milliseconds; under a 100 ms deadline Explore stops at
// the deadline.
func TestExploreStopsAtDeadline(t *testing.T) {
	dir := t.TempDir()
	names, err := corpus.WriteCorpus(dir, 15, 13)
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join(dir, names[14]))
	if err != nil {
		t.Fatal(err)
	}
	e := engineFor(t, string(text))
	e.WholePolicy = true
	deadlineProbe(t, e, "Does FableWorks14 obtain my verified tax identification number?", func(ctx context.Context, p llm.ParamSet) error {
		exp, err := e.ExploreConditions(ctx, p)
		if err == nil && len(exp.Placeholders) != MaxExplorePlaceholders {
			t.Errorf("explored %d placeholders, want %d", len(exp.Placeholders), MaxExplorePlaceholders)
		}
		return err
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
