package llm

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

func complete(t *testing.T, req Request) string {
	t.Helper()
	resp, err := NewSim().Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("Complete(%s): %v", req.Task, err)
	}
	return resp.Text
}

func extractVia(t *testing.T, company, segment string) []ParamSet {
	t.Helper()
	text := complete(t, ExtractParamsPrompt(company, segment))
	var out []ParamSet
	if err := json.Unmarshal([]byte(text), &out); err != nil {
		t.Fatalf("unmarshal %q: %v", text, err)
	}
	return out
}

func TestCompanyNameHeading(t *testing.T) {
	prefix := "TikTak Privacy Policy\nLast updated: January 2026\nThis policy explains our practices."
	text := complete(t, CompanyNamePrompt(prefix))
	var got map[string]string
	if err := json.Unmarshal([]byte(text), &got); err != nil {
		t.Fatal(err)
	}
	if got["company"] != "TikTak" {
		t.Errorf("company = %q", got["company"])
	}
}

func TestCompanyNameWeParenthetical(t *testing.T) {
	prefix := `This Privacy Policy describes how MetaBook ("we", "us", or "our") processes your information.`
	text := complete(t, CompanyNamePrompt(prefix))
	var got map[string]string
	json.Unmarshal([]byte(text), &got)
	if got["company"] != "MetaBook" {
		t.Errorf("company = %q", got["company"])
	}
}

func TestExtractSimpleShare(t *testing.T) {
	ps := extractVia(t, "TikTak", "TikTak shares your email addresses with advertising partners.")
	if len(ps) != 1 {
		t.Fatalf("got %d sets: %+v", len(ps), ps)
	}
	p := ps[0]
	if p.Sender != "TikTak" || p.Action != "share" || p.DataType != "email address" ||
		p.Receiver != "advertising partner" || p.Permission != "allow" {
		t.Errorf("bad extraction: %+v", p)
	}
}

func TestExtractNegation(t *testing.T) {
	ps := extractVia(t, "TikTak", "TikTak does not sell your personal information.")
	if len(ps) != 1 {
		t.Fatalf("got %d sets: %+v", len(ps), ps)
	}
	if ps[0].Permission != "deny" || ps[0].Action != "sell" || ps[0].Receiver != "third party" {
		t.Errorf("bad negation extraction: %+v", ps[0])
	}
}

func TestExtractEnumeration(t *testing.T) {
	ps := extractVia(t, "TikTak", "You may provide account and profile information, such as name, age, username, password, language, email, phone number, social media account information, and profile image.")
	// Head phrase + 9 items = 10 edges, matching Table 2 row 2.
	if len(ps) != 10 {
		t.Fatalf("got %d sets, want 10: %+v", len(ps), ps)
	}
	var types []string
	for _, p := range ps {
		if p.Sender != "user" || p.Action != "provide" {
			t.Errorf("bad set: %+v", p)
		}
		types = append(types, p.DataType)
	}
	for _, want := range []string{"account and profile information", "name", "age", "username", "password", "language", "email", "phone number", "social media account information", "profile image"} {
		found := false
		for _, g := range types {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing data type %q in %v", want, types)
		}
	}
}

func TestExtractConditionalWithCausalEdges(t *testing.T) {
	ps := extractVia(t, "TikTak", "If you choose to find other users through your phone contacts, TikTak will access and collect names, phone numbers, and email addresses of contacts.")
	// Expect: the user-choice edge plus access+collect over three data
	// types = 1 + 6 = 7 param sets (paper's Table 2 row 3 pattern).
	if len(ps) < 6 {
		t.Fatalf("got %d sets: %+v", len(ps), ps)
	}
	haveChoose, haveAccess, haveCollect := false, false, false
	for _, p := range ps {
		switch {
		case p.Action == "choose to find":
			haveChoose = true
		case p.Action == "access":
			haveAccess = true
			if p.Receiver != "TikTak" {
				t.Errorf("access receiver = %q", p.Receiver)
			}
		case p.Action == "collect":
			haveCollect = true
			if p.Condition == "" {
				t.Errorf("collect edge lost its condition: %+v", p)
			}
			if p.Subject != "contact" {
				t.Errorf("data subject should be contact: %+v", p)
			}
		}
	}
	if !haveChoose || !haveAccess || !haveCollect {
		t.Errorf("missing actions: choose=%v access=%v collect=%v in %+v", haveChoose, haveAccess, haveCollect, ps)
	}
}

func TestExtractVaguePurposeCondition(t *testing.T) {
	ps := extractVia(t, "MetaBook", "MetaBook shares usage data with service providers for legitimate business purposes.")
	if len(ps) != 1 {
		t.Fatalf("got %d: %+v", len(ps), ps)
	}
	if ps[0].Condition != "legitimate business purposes" {
		t.Errorf("vague condition not preserved verbatim: %q", ps[0].Condition)
	}
	if ps[0].Receiver != "service provider" {
		t.Errorf("receiver = %q", ps[0].Receiver)
	}
	if v := detectVagueTerms(ps[0].Condition); len(v) == 0 {
		t.Error("vague term not detected")
	}
}

func TestExtractCoordinatedUserActions(t *testing.T) {
	ps := extractVia(t, "MetaBook", "You view content, interact with ads, and engage with commercial content.")
	actions := map[string]bool{}
	for _, p := range ps {
		actions[p.Action] = true
		if p.Sender != "user" {
			t.Errorf("user action sender = %q", p.Sender)
		}
	}
	for _, want := range []string{"view", "interact with", "engage with"} {
		if !actions[want] {
			t.Errorf("missing action %q: %+v", want, ps)
		}
	}
}

func TestExtractNonPracticeReturnsEmpty(t *testing.T) {
	ps := extractVia(t, "TikTak", "This policy was last updated in January.")
	if len(ps) != 0 {
		t.Errorf("non-practice text extracted: %+v", ps)
	}
}

func TestExtractSelfDirection(t *testing.T) {
	ps := extractVia(t, "MetaBook", "MetaBook processes financial information.")
	if len(ps) != 1 || ps[0].Sender != "MetaBook" || ps[0].Receiver != "MetaBook" {
		t.Errorf("self-directed action: %+v", ps)
	}
}

func TestTaxonomyRootAndLayer(t *testing.T) {
	text := complete(t, TaxonomyRootPrompt("data", []string{"email", "cookie"}))
	var root map[string]string
	json.Unmarshal([]byte(text), &root)
	if root["root"] != "data" {
		t.Errorf("root = %q", root["root"])
	}

	// Layer 1 from root proposes categories.
	text = complete(t, TaxonomyLayerPrompt("data", []string{"data"}, []string{"email", "gps location", "cookie"}))
	var layer struct {
		Children map[string][]string `json:"children"`
	}
	if err := json.Unmarshal([]byte(text), &layer); err != nil {
		t.Fatal(err)
	}
	cats := layer.Children["data"]
	if len(cats) < 2 {
		t.Fatalf("root children = %v", cats)
	}
	// Layer 2 assigns terms under categories.
	text = complete(t, TaxonomyLayerPrompt("data", cats, []string{"email", "gps location", "cookie"}))
	var layer2 struct {
		Children map[string][]string `json:"children"`
	}
	if err := json.Unmarshal([]byte(text), &layer2); err != nil {
		t.Fatal(err)
	}
	assigned := 0
	for _, kids := range layer2.Children {
		assigned += len(kids)
	}
	if assigned != 3 {
		t.Errorf("layer 2 assigned %d of 3 terms: %v", assigned, layer.Children)
	}
}

func TestTaxonomySpecialization(t *testing.T) {
	text := complete(t, TaxonomyLayerPrompt("data", []string{"phone number"}, []string{"phone number of contacts"}))
	var layer struct {
		Children map[string][]string `json:"children"`
	}
	json.Unmarshal([]byte(text), &layer)
	kids := layer.Children["phone number"]
	if len(kids) != 1 || kids[0] != "phone number of contacts" {
		t.Errorf("specialization children = %v", layer.Children)
	}
}

func TestSemanticEquiv(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"email address", "email addresses", true},
		{"email", "email address", true},
		{"location data", "gps location", true},
		{"location data", "location information", true},
		{"email address", "credit card", false},
		{"cookie", "advertising partner", false},
	}
	for _, c := range cases {
		text := complete(t, SemanticEquivPrompt(c.a, c.b))
		var got map[string]bool
		json.Unmarshal([]byte(text), &got)
		if got["equivalent"] != c.want {
			t.Errorf("equiv(%q,%q) = %v, want %v", c.a, c.b, got["equivalent"], c.want)
		}
	}
}

func TestSimRejectsBadRequests(t *testing.T) {
	sim := NewSim()
	if _, err := sim.Complete(context.Background(), Request{}); err == nil {
		t.Error("empty request should fail")
	}
	if _, err := sim.Complete(context.Background(), Request{Task: "nope", Prompt: "x"}); err == nil {
		t.Error("unknown task should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Complete(ctx, CompanyNamePrompt("x")); err == nil {
		t.Error("cancelled context should fail")
	}
}

func TestUsageReported(t *testing.T) {
	resp, err := NewSim().Complete(context.Background(), ExtractParamsPrompt("A", "A shares your email with partners."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.PromptTokens == 0 || resp.Usage.CompletionTokens == 0 {
		t.Errorf("usage = %+v", resp.Usage)
	}
}

func TestCachingClient(t *testing.T) {
	inner := &countingClient{}
	c := NewCachingClient(inner)
	req := ExtractParamsPrompt("A", "A collects cookies.")
	r1, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text != r2.Text {
		t.Error("cache returned different text")
	}
	if inner.calls != 1 {
		t.Errorf("the model answered %d requests, want 1: the repeat missed the cache", inner.calls)
	}
}

// countingClient counts the requests that reach the simulated model.
type countingClient struct{ calls int }

func (c *countingClient) Complete(ctx context.Context, req Request) (Response, error) {
	c.calls++
	return NewSim().Complete(ctx, req)
}

func TestFlakyClient(t *testing.T) {
	c := &FlakyClient{Inner: NewSim(), EveryN: 2}
	req := CompanyNamePrompt("Acme Privacy Policy")
	if _, err := c.Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(context.Background(), req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second call should fail, got %v", err)
	}
}

func TestExtractDeterministic(t *testing.T) {
	seg := "If you consent, MetaBook collects your precise location for advertising purposes."
	a := extractVia(t, "MetaBook", seg)
	b := extractVia(t, "MetaBook", seg)
	if len(a) != len(b) {
		t.Fatal("nondeterministic extraction")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
