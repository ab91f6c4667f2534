package extract

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/segment"
)

const policy = `# TikTak Privacy Policy

## Information We Collect

When you create an account, you may provide your email. We collect device information automatically.

We share usage data with service providers for legitimate business purposes.

## Your Choices

We do not sell your personal information.`

func TestResolveCoreferences(t *testing.T) {
	cases := map[string]string{
		"We collect your email.":             "TikTak collect your email.",
		"You can contact us at any time.":    "You can contact TikTak at any time.",
		"Our services use our partners.":     "TikTak's services use TikTak's partners.",
		"The west wing is not a pronoun.":    "The west wing is not a pronoun.", // "we" inside words untouched
		"Powerful trust in uslessness? not.": "Powerful trust in uslessness? not.",
	}
	for in, want := range cases {
		if got := ResolveCoreferences(in, "TikTak"); got != want {
			t.Errorf("ResolveCoreferences(%q) = %q, want %q", in, got, want)
		}
	}
	if got := ResolveCoreferences("We collect.", ""); got != "We collect." {
		t.Errorf("empty company changed text: %q", got)
	}
}

func TestCompanyName(t *testing.T) {
	e := New(llm.NewSim())
	got, err := e.CompanyName(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if got != "TikTak" {
		t.Errorf("company = %q", got)
	}
}

func TestExtractPolicy(t *testing.T) {
	e := New(llm.NewSim())
	ex, err := e.ExtractPolicy(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Company != "TikTak" {
		t.Errorf("company = %q", ex.Company)
	}
	if len(ex.Segments) == 0 || len(ex.Practices) == 0 {
		t.Fatalf("segments=%d practices=%d", len(ex.Segments), len(ex.Practices))
	}
	// Every practice carries provenance.
	for _, p := range ex.Practices {
		if p.SegmentID == "" {
			t.Errorf("practice without segment ID: %+v", p)
		}
	}
	// Vague terms detected for the "legitimate business purposes" segment.
	foundVague := false
	for _, p := range ex.Practices {
		if len(p.VagueTerms) > 0 {
			foundVague = true
		}
	}
	if !foundVague {
		t.Error("no vague terms surfaced")
	}
	// The denial is extracted with permission=deny.
	foundDeny := false
	for _, p := range ex.Practices {
		if p.Permission == "deny" && p.Action == "sell" {
			foundDeny = true
		}
	}
	if !foundDeny {
		t.Errorf("sell denial not extracted: %+v", ex.Practices)
	}
	if e.Stats.Practices != len(ex.Practices) || e.Stats.Errors != 0 {
		t.Errorf("stats = %+v", e.Stats)
	}
}

func TestExtractSegmentCorefApplied(t *testing.T) {
	e := New(llm.NewSim())
	seg := segment.Segment{ID: segment.Hash("x"), Text: "We collect your precise location."}
	ps, err := e.ExtractSegment(context.Background(), "TikTak", seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("practices = %+v", ps)
	}
	if ps[0].Receiver != "TikTak" {
		t.Errorf("coref not applied, receiver = %q", ps[0].Receiver)
	}
}

func TestReExtractOnlyChangedSegments(t *testing.T) {
	sim := llm.NewSim()
	counting := llm.NewCachingClient(sim)
	e := New(counting)
	ex1, err := e.ExtractPolicy(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	callsAfterFirst := e.Stats.LLMCalls

	edited := strings.Replace(policy, "We collect device information automatically.",
		"We collect device information and crash logs automatically.", 1)
	ex2, diff, err := e.ReExtract(context.Background(), ex1, edited)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) != 1 || len(diff.Removed) != 1 {
		t.Fatalf("diff = +%d -%d", len(diff.Added), len(diff.Removed))
	}
	// Only the company prompt + the one changed segment hit the model.
	newCalls := e.Stats.LLMCalls - callsAfterFirst
	if newCalls != 2 {
		t.Errorf("re-extract made %d LLM calls, want 2 (company + 1 segment)", newCalls)
	}
	if len(ex2.Practices) == 0 {
		t.Error("re-extraction lost practices")
	}
	// Unchanged practices are byte-identical (reused).
	after := ex2.reuseIndex()
	for id, ps := range ex1.reuseIndex() {
		if _, stillThere := after[id]; !stillThere {
			continue
		}
		for i := range ps {
			if after[id][i].ParamSet != ps[i].ParamSet {
				t.Errorf("kept segment %s practices changed", id[:8])
			}
		}
	}
}

// failOn fails every request of one task whose input contains a given
// text, and passes the others on. The extractor calls it from several
// workers at once, so it picks the failing request by content, not by
// arrival order, and counts the failures atomically.
type failOn struct {
	inner  llm.Client
	task   llm.Task
	text   string
	failed atomic.Int64
}

func (f *failOn) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if req.Task == f.task {
		for _, in := range req.Input {
			if strings.Contains(in, f.text) {
				f.failed.Add(1)
				return llm.Response{}, llm.ErrOverloaded
			}
		}
	}
	return f.inner.Complete(ctx, req)
}

func TestExtractPolicyDegradesOnSegmentFailure(t *testing.T) {
	// Fail one segment's extraction: the usage-data statement.
	client := &failOn{inner: llm.NewSim(), task: llm.TaskExtractParams, text: "share usage data"}
	e := New(client)
	ex, err := e.ExtractPolicy(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if n := client.failed.Load(); n != 1 {
		t.Fatalf("%d requests failed, want 1", n)
	}
	if e.Stats.Errors != 1 {
		t.Errorf("errors = %d", e.Stats.Errors)
	}
	if len(ex.Practices) == 0 {
		t.Error("all practices lost on single failure")
	}
	for _, p := range ex.Practices {
		if p.DataType == "usage data" {
			t.Errorf("practice %+v extracted from the failed segment", p.ParamSet)
		}
	}
}

func TestExtractPolicyCompanyFailureAborts(t *testing.T) {
	e := New(&failOn{inner: llm.NewSim(), task: llm.TaskCompanyName})
	if _, err := e.ExtractPolicy(context.Background(), policy); !errors.Is(err, llm.ErrOverloaded) {
		t.Errorf("err = %v", err)
	}
}

func TestExtractPolicyContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(llm.NewSim())
	if _, err := e.ExtractPolicy(ctx, policy); err == nil {
		t.Error("cancelled context should fail")
	}
}

type malformed struct{ inner llm.Client }

func (m *malformed) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if req.Task == llm.TaskExtractParams {
		return llm.Response{Text: "garbage {"}, nil
	}
	return m.inner.Complete(ctx, req)
}

func TestExtractPolicyMalformedSegmentsCounted(t *testing.T) {
	e := New(&malformed{inner: llm.NewSim()})
	ex, err := e.ExtractPolicy(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.Errors == 0 {
		t.Error("malformed outputs not counted")
	}
	if len(ex.Practices) != 0 {
		t.Error("practices from garbage")
	}
}

func TestOPP115CategoriesAttached(t *testing.T) {
	e := New(llm.NewSim())
	ex, err := e.ExtractPolicy(context.Background(), policy)
	if err != nil {
		t.Fatal(err)
	}
	// Every practice carries at least one OPP-115 category; the sharing
	// statement maps to Third Party Sharing/Collection.
	foundSharing := false
	for _, p := range ex.Practices {
		if len(p.OPPCategories) == 0 {
			t.Fatalf("practice missing OPP categories: %+v", p)
		}
		for _, c := range p.OPPCategories {
			if c == "Third Party Sharing/Collection" && p.Action == "share" {
				foundSharing = true
			}
		}
	}
	if !foundSharing {
		t.Error("sharing statement not categorized as Third Party Sharing/Collection")
	}
}
