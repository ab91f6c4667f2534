package extract

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/llm"
)

func TestConcurrentExtractionMatchesSequential(t *testing.T) {
	seq := New(llm.NewSim())
	seq.Workers = 1
	exSeq, err := seq.ExtractPolicy(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	par := New(llm.NewSim())
	par.Workers = 8
	exPar, err := par.ExtractPolicy(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exSeq.Practices, exPar.Practices) {
		t.Fatalf("concurrent extraction diverged:\nseq: %+v\npar: %+v", exSeq.Practices, exPar.Practices)
	}
	if seq.Stats != par.Stats {
		t.Errorf("stats diverged: %+v vs %+v", seq.Stats, par.Stats)
	}
}

func TestConcurrentExtractionDegradesOnFailures(t *testing.T) {
	// A flaky client failing every 4th call: both modes degrade, never
	// panic, and record errors. (Counts differ across modes because the
	// company prompt consumes one call in sequence.)
	par := New(&llm.FlakyClient{Inner: llm.NewSim(), EveryN: 4})
	par.Workers = 4
	ex, err := par.ExtractPolicy(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Errors == 0 {
		t.Error("no errors recorded under failure injection")
	}
	if len(ex.Practices) == 0 {
		t.Error("all practices lost")
	}
	if ex.SegmentErrors == nil {
		t.Error("degraded extraction should aggregate segment errors")
	}
	if !errors.Is(ex.SegmentErrors, llm.ErrOverloaded) {
		t.Errorf("joined error should expose the underlying cause, got %v", ex.SegmentErrors)
	}
}

func TestConcurrentExtractionContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := New(llm.NewSim())
	e.Workers = 4
	cancel()
	if _, err := e.ExtractPolicy(ctx, policy); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context should return ctx.Err(), got %v", err)
	}
}

// blockingClient answers the company prompt immediately, then blocks every
// extraction call until its context is cancelled, counting starts.
type blockingClient struct {
	inner   llm.Client
	started atomic.Int32
}

func (c *blockingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if req.Task == llm.TaskCompanyName {
		return c.inner.Complete(ctx, req)
	}
	c.started.Add(1)
	<-ctx.Done()
	return llm.Response{}, ctx.Err()
}

func TestExtractPolicyCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	bc := &blockingClient{inner: llm.NewSim()}
	e := New(bc)
	e.Workers = 4
	done := make(chan error, 1)
	go func() {
		_, err := e.ExtractPolicy(ctx, policy)
		done <- err
	}()
	// Wait until workers are actually in flight, then cancel.
	for i := 0; i < 1000 && bc.started.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-run cancel should return ctx.Err(), got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("extraction did not return promptly after cancellation")
	}
}
