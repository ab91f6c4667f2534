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
// against the reference. Each policy is built from scratch (both
// hierarchies, as a create does), then updated to the next policy's text,
// which places the new terms through kg's extendHierarchy: the prompt
// shape of an existing hierarchy's terms plus new ones.
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
	var prevEx *extract.Extraction
	var prev *kg.KnowledgeGraph
	var newTerms int
	for _, name := range names {
		text, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			next, diff, err := ex.ReExtract(ctx, prevEx, string(text))
			if err != nil {
				t.Fatalf("%s: re-extract: %v", name, err)
			}
			st, err := kb.Update(ctx, prev, diff, next)
			if err != nil {
				t.Fatalf("%s: update: %v", name, err)
			}
			newTerms += st.NewTerms
		}
		prevEx, err = ex.ExtractPolicy(ctx, string(text))
		if err != nil {
			t.Fatalf("%s: extract: %v", name, err)
		}
		if prev, err = kb.Build(ctx, prevEx); err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if checker.layers.Load() < int64(2*policies) || newTerms == 0 {
		t.Fatalf("checked %d layer prompts and placed %d terms by update; the corpus no longer exercises CoL", checker.layers.Load(), newTerms)
	}
	t.Logf("%d layer prompts matched the reference; updates placed %d new terms", checker.layers.Load(), newTerms)
}
