package taxonomy

import (
	"context"
	"errors"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/obs"
)

var dataTerms = []string{
	"email", "phone number", "gps location", "cookie", "ip address",
	"profile image", "credit card information", "purchase", "username",
	"crash log", "phone number of contacts", "watch history",
}

func TestBuildDataHierarchy(t *testing.T) {
	b := &Builder{Client: llm.NewSim(), Obs: obs.NewRegistry()}
	h, err := b.Build(context.Background(), "data", dataTerms)
	if err != nil {
		t.Fatal(err)
	}
	if h.Root != "data" {
		t.Errorf("root = %q", h.Root)
	}
	// Every input term appears exactly once.
	for _, term := range dataTerms {
		if !h.Has(term) {
			t.Errorf("term %q missing from hierarchy", term)
		}
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
	// Semantic placements: email is under a category, not the root.
	if p, _ := h.Parent("email"); p == "data" {
		t.Errorf("email attached directly to root")
	}
	// Specialization: "phone number of contacts" should sit under
	// "phone number".
	if p, _ := h.Parent("phone number of contacts"); p != "phone number" {
		t.Errorf("parent(phone number of contacts) = %q", p)
	}
	// Subsumption inference works through the hierarchy.
	if !h.Subsumes("data", "email") {
		t.Error("root does not subsume email")
	}
	calls := b.Obs.Counter("quagmire_taxonomy_llm_calls_total").Value()
	rounds := b.Obs.Counter("quagmire_taxonomy_col_rounds_total").Value()
	if calls == 0 || rounds == 0 {
		t.Errorf("stats not recorded: %d model calls, %d CoL rounds", calls, rounds)
	}
}

func TestBuildEntityHierarchy(t *testing.T) {
	b := &Builder{Client: llm.NewSim()}
	terms := []string{"user", "advertising partner", "service provider", "law enforcement agency", "payment processor", "contact"}
	h, err := b.Build(context.Background(), "entity", terms)
	if err != nil {
		t.Fatal(err)
	}
	if h.Root != "entity" {
		t.Errorf("root = %q", h.Root)
	}
	for _, term := range terms {
		if !h.Has(term) {
			t.Errorf("entity %q missing", term)
		}
	}
}

func TestBuildDeduplicates(t *testing.T) {
	b := &Builder{Client: llm.NewSim()}
	h, err := b.Build(context.Background(), "data", []string{"email", "Email", "emails", "email "})
	if err != nil {
		t.Fatal(err)
	}
	// All variants canonicalize to one term.
	count := 0
	for _, term := range h.Terms() {
		if term == "email" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("email appears %d times", count)
	}
}

func TestBuildEmptyTerms(t *testing.T) {
	b := &Builder{Client: llm.NewSim()}
	h, err := b.Build(context.Background(), "data", nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 {
		t.Errorf("empty build len = %d", h.Len())
	}
}

func TestBuildFilter(t *testing.T) {
	// An absurdly high threshold rejects every term-to-term edge; terms
	// fall back to categories or the root but all still appear.
	b := &Builder{
		Client:          llm.NewSim(),
		Filter:          embed.NewModel("scibert-sim"),
		FilterThreshold: 0.999,
		Obs:             obs.NewRegistry(),
	}
	h, err := b.Build(context.Background(), "data", dataTerms)
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range dataTerms {
		if !h.Has(term) {
			t.Errorf("filtered build lost %q", term)
		}
	}
	if b.Obs.Counter("quagmire_taxonomy_edges_filtered_total").Value() == 0 {
		t.Error("filter rejected nothing at threshold 0.999")
	}
	// "phone number of contacts" can no longer attach under "phone
	// number" via the specialization edge if filtered... but it must
	// still exist somewhere.
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildNilClient(t *testing.T) {
	b := &Builder{}
	if _, err := b.Build(context.Background(), "data", dataTerms); err == nil {
		t.Error("nil client should error")
	}
}

type malformedClient struct{}

func (malformedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{Text: "not json"}, nil
}

func TestBuildMalformedModelOutput(t *testing.T) {
	b := &Builder{Client: malformedClient{}}
	_, err := b.Build(context.Background(), "data", dataTerms)
	if !errors.Is(err, llm.ErrMalformedOutput) {
		t.Errorf("err = %v", err)
	}
}

type failingClient struct{ n int }

func (f *failingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	f.n++
	if f.n > 1 {
		return llm.Response{}, llm.ErrOverloaded
	}
	return llm.NewSim().Complete(ctx, req)
}

func TestBuildPropagatesClientErrors(t *testing.T) {
	b := &Builder{Client: &failingClient{}}
	_, err := b.Build(context.Background(), "data", dataTerms)
	if !errors.Is(err, llm.ErrOverloaded) {
		t.Errorf("err = %v", err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	b := &Builder{Client: llm.NewSim()}
	h1, err := b.Build(context.Background(), "data", dataTerms)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := b.Build(context.Background(), "data", dataTerms)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := h1.Terms(), h2.Terms()
	if len(t1) != len(t2) {
		t.Fatal("nondeterministic term count")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("nondeterministic terms at %d: %q vs %q", i, t1[i], t2[i])
		}
		p1, _ := h1.Parent(t1[i])
		p2, _ := h2.Parent(t2[i])
		if p1 != p2 {
			t.Fatalf("nondeterministic parent of %q: %q vs %q", t1[i], p1, p2)
		}
	}
}

// Golden placements: the simulated CoL model puts domain terms under the
// expected categories.
func TestTaxonomyGoldenPlacements(t *testing.T) {
	b := &Builder{Client: llm.NewSim()}
	h, err := b.Build(context.Background(), "data", []string{
		"email", "gps location", "credit card number", "faceprint",
		"cookie", "watch history", "photo",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"email":              "contact information",
		"gps location":       "location data",
		"credit card number": "financial data",
		"faceprint":          "biometric data",
		"cookie":             "technical data",
		"watch history":      "usage data",
		"photo":              "content data",
	}
	for term, parent := range want {
		if got, _ := h.Parent(term); got != parent {
			t.Errorf("parent(%s) = %q, want %q", term, got, parent)
		}
	}
}
