package query

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

var batchQueries = []string{
	"Does TikTak share my email address with advertising partners?",
	"Does TikTak collect my device information?",
	"Does TikTak sell my personal information?",
	"Does TikTak share my usage data with service providers?",
}

func TestAskBatchMatchesSequential(t *testing.T) {
	seqEng := newEngine(t)
	var want []*Result
	for _, q := range batchQueries {
		res, err := seqEng.Ask(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	parEng := newEngine(t)
	parEng.Workers = 8
	items, err := parEng.AskBatch(context.Background(), batchQueries)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(batchQueries) {
		t.Fatalf("items = %d, want %d", len(items), len(batchQueries))
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("query %d: %v", i, it.Err)
		}
		if it.Query != batchQueries[i] {
			t.Errorf("item %d out of order: %q", i, it.Query)
		}
		if it.Result.Verdict != want[i].Verdict {
			t.Errorf("query %q: verdict %s, want %s", it.Query, it.Result.Verdict, want[i].Verdict)
		}
		if !reflect.DeepEqual(it.Result.Translations, want[i].Translations) {
			t.Errorf("query %q: translations diverged", it.Query)
		}
	}
}

func TestAskBatchSharedCacheHitsOnRepeats(t *testing.T) {
	eng := newEngine(t)
	eng.Workers = 4
	eng.Cache = smt.NewResultCache(0)
	// The same queries submitted twice in one batch: the second halves must
	// hit the cache.
	doubled := append(append([]string(nil), batchQueries...), batchQueries...)
	items, err := eng.AskBatch(context.Background(), doubled)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("query %d: %v", i, it.Err)
		}
	}
	st := eng.Cache.Stats()
	if st.Hits == 0 {
		t.Errorf("repeated queries should hit the SMT cache: %+v", st)
	}
	// Verdicts of the duplicate halves agree.
	for i := range batchQueries {
		if a, b := items[i].Result.Verdict, items[i+len(batchQueries)].Result.Verdict; a != b {
			t.Errorf("query %q: verdict %s != cached %s", batchQueries[i], a, b)
		}
	}
}

func TestAskBatchEmpty(t *testing.T) {
	eng := newEngine(t)
	items, err := eng.AskBatch(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Errorf("items = %d, want 0", len(items))
	}
}

func TestAskBatchContextCancel(t *testing.T) {
	eng := newEngine(t)
	eng.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items, err := eng.AskBatch(ctx, batchQueries)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch should return ctx.Err(), got %v", err)
	}
	for i, it := range items {
		if it.Err == nil && it.Result == nil {
			t.Errorf("item %d has neither result nor error", i)
		}
	}
}

// TestAskDoneContextGetsNoCachedVerdict: a question whose context is
// already done is not answered, even when the caches a pipeline wires in
// (model responses, solver results) hold everything it needs, so a
// scenario's per-case deadline holds on every path.
func TestAskDoneContextGetsNoCachedVerdict(t *testing.T) {
	eng := newEngine(t)
	eng.Client = llm.NewCachingClient(eng.Client)
	eng.Cache = smt.NewResultCache(0)
	q := batchQueries[0]
	if _, err := eng.Ask(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := eng.Ask(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ask on a cancelled context = %+v, %v; want context.Canceled", res, err)
	}
}

func TestAskBatchReportsPerQueryErrors(t *testing.T) {
	eng := newEngine(t)
	eng.Workers = 4
	queries := append([]string{""}, batchQueries...)
	items, err := eng.AskBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err == nil {
		t.Error("empty query should fail")
	}
	for _, it := range items[1:] {
		if it.Err != nil {
			t.Errorf("query %q: unexpected error %v", it.Query, it.Err)
		}
	}
}

// blockingClient parks every Complete call on its context and closes
// started on the first call, so a test can cancel a batch that is
// provably mid-LLM-call rather than racing the cancel against startup.
type blockingClient struct {
	started chan struct{}
	once    sync.Once
}

func (b *blockingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return llm.Response{}, ctx.Err()
}

// TestAskBatchCancelMidFlight is the regression test for cancellation not
// reaching in-flight work: cancelling while workers are blocked inside
// queries must return promptly with ctx.Err(), not wait the batch out.
func TestAskBatchCancelMidFlight(t *testing.T) {
	eng := newEngine(t)
	eng.Workers = 2
	bc := &blockingClient{started: make(chan struct{})}
	eng.Client = bc

	ctx, cancel := context.WithCancel(context.Background())
	type batchOut struct {
		items []BatchItem
		err   error
	}
	done := make(chan batchOut, 1)
	go func() {
		items, err := eng.AskBatch(ctx, batchQueries)
		done <- batchOut{items, err}
	}()

	<-bc.started
	cancel()
	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("batch error = %v, want context.Canceled", out.err)
		}
		for i, it := range out.items {
			if it.Err == nil {
				t.Errorf("item %d: expected a cancellation error", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch did not return while queries were in flight")
	}
}
