package llm_test

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/taxonomy"
)

// referenceChecker wraps the simulated model and compares its answer to
// every CoL layer prompt with the reference implementation's answer.
type referenceChecker struct {
	t      *testing.T
	sim    llm.Client
	layers atomic.Int64
}

func (c *referenceChecker) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := c.sim.Complete(ctx, req)
	if err != nil || req.Task != llm.TaskTaxonomyLayer {
		return resp, err
	}
	c.layers.Add(1)
	want, rerr := llm.ReferenceLayerAnswer(req)
	if rerr != nil {
		c.t.Errorf("reference answer: %v", rerr)
	} else if resp.Text != want {
		c.t.Errorf("%s layer answer differs from the reference\nfrontier:  %q\nremaining: %q\ngot:  %s\nwant: %s",
			req.Input["kind"], req.Input["frontier"], req.Input["remaining"], resp.Text, want)
	}
	return resp, err
}

// TestTaxonomyAnswersMatchReferenceOverCorpus runs whole CoL inductions
// over the terms the simulated extractor finds in generated corpus
// policies, and checks the simulated model's answer to every layer prompt
// against the reference. Each policy's graph is built with both
// hierarchies, as every create and update does.
func TestTaxonomyAnswersMatchReferenceOverCorpus(t *testing.T) {
	policies := 60
	if testing.Short() {
		policies = 12
	}
	dir := t.TempDir()
	names, err := corpus.WriteCorpus(dir, policies, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ex := extract.New(llm.NewSim())
	checker := &referenceChecker{t: t, sim: llm.NewSim()}
	kb := kg.NewBuilder(&taxonomy.Builder{Client: checker})
	for _, name := range names {
		text, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		extracted, err := ex.ExtractPolicy(ctx, string(text))
		if err != nil {
			t.Fatalf("%s: extract: %v", name, err)
		}
		if _, err := kb.Build(ctx, extracted); err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if checker.layers.Load() < int64(2*policies) {
		t.Fatalf("checked %d layer prompts; the corpus no longer exercises CoL", checker.layers.Load())
	}
	t.Logf("%d layer prompts matched the reference", checker.layers.Load())
}
