package kg

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/taxonomy"
)

const policy = `# TikTak Privacy Policy

## Information We Collect

When you create an account, you may provide your email. We collect device information automatically.

We share usage data with service providers for legitimate business purposes.

If you choose to find other users through your phone contacts, we will access and collect names, phone numbers, and email addresses of contacts.

## Your Choices

We do not sell your personal information.`

func buildKG(t *testing.T, text string) (*Builder, *extract.Extraction, *KnowledgeGraph) {
	t.Helper()
	e := extract.New(llm.NewSim())
	ex, err := e.ExtractPolicy(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(&taxonomy.Builder{Client: llm.NewSim()})
	k, err := b.Build(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	return b, ex, k
}

// updateKG builds the graph of an edited policy from prev's extraction,
// re-extracting only the changed statements, and compares it with k.
func updateKG(t *testing.T, b *Builder, prev *extract.Extraction, k *KnowledgeGraph, edited string) (*KnowledgeGraph, UpdateStats) {
	t.Helper()
	ex, diff, err := extract.New(llm.NewSim()).ReExtract(context.Background(), prev, edited)
	if err != nil {
		t.Fatal(err)
	}
	next, err := b.Build(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	return next, Compare(k, next, diff)
}

func TestBuildGraph(t *testing.T) {
	_, _, k := buildKG(t, policy)
	st := k.Stats()
	if st.Edges == 0 || st.Nodes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entities == 0 || st.DataTypes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Entities+st.DataTypes > st.Nodes {
		t.Errorf("entity+data exceeds nodes: %+v", st)
	}
	// The company acts in the graph.
	companyActs := false
	for _, e := range k.ED.Edges() {
		if e.From == "TikTak" {
			companyActs = true
		}
	}
	if !companyActs {
		t.Error("company has no outgoing practice edges")
	}
	// Conditions rode along onto edges.
	foundCond := false
	for _, e := range k.ED.Edges() {
		if strings.Contains(e.Condition, "legitimate business purposes") {
			foundCond = true
		}
	}
	if !foundCond {
		t.Error("condition predicate lost")
	}
	// Hierarchies contain the graph's terms.
	for _, d := range k.DataTypes() {
		if !k.DataH.Has(d) {
			t.Errorf("data type %q not in hierarchy", d)
		}
	}
	for _, en := range k.Entities() {
		// Proper-cased company is canonicalized inside the hierarchy.
		if !k.EntityH.Has(en) && !k.EntityH.Has(strings.ToLower(en)) {
			t.Errorf("entity %q not in hierarchy", en)
		}
	}
}

func TestEdgeDirectionality(t *testing.T) {
	_, _, k := buildKG(t, policy)
	// Outbound: share edge has Other = receiver.
	foundShare := false
	for _, e := range k.ED.Edges() {
		if e.Label == "share" && e.From == "TikTak" {
			foundShare = true
			if e.Other != "service provider" {
				t.Errorf("share edge Other = %q", e.Other)
			}
		}
	}
	if !foundShare {
		t.Error("no share edge found")
	}
	// User activities: user is the actor.
	foundProvide := false
	for _, e := range k.ED.Edges() {
		if e.From == "user" && e.Label == "provide" {
			foundProvide = true
		}
	}
	if !foundProvide {
		t.Error("no [user]-provide-> edge")
	}
}

func TestDenyEdgesPreserved(t *testing.T) {
	_, _, k := buildKG(t, policy)
	foundDeny := false
	for _, e := range k.ED.Edges() {
		if e.Permission == "deny" && e.Label == "sell" {
			foundDeny = true
		}
	}
	if !foundDeny {
		t.Error("deny edge lost")
	}
}

func TestSubsumptionInference(t *testing.T) {
	_, _, k := buildKG(t, policy)
	// The hierarchy enables subtype inference from the root.
	if !k.DataH.Subsumes("data", "email") {
		t.Errorf("data should subsume email; parent chain: %v", k.DataH.Ancestors("email"))
	}
}

func TestIncrementalUpdate(t *testing.T) {
	b, ex1, k := buildKG(t, policy)
	before := k.Stats()

	edited := strings.Replace(policy, "We collect device information automatically.",
		"We collect device information and biometric identifiers automatically.", 1)
	k, st := updateKG(t, b, ex1, k, edited)
	if st.EdgesRemoved == 0 || st.EdgesAdded == 0 || st.NewTerms == 0 {
		t.Errorf("update stats = %+v", st)
	}
	after := k.Stats()
	if after.Edges != before.Edges-st.EdgesRemoved+st.EdgesAdded {
		t.Errorf("edge accounting: before=%d after=%d removed=%d added=%d",
			before.Edges, after.Edges, st.EdgesRemoved, st.EdgesAdded)
	}
	// The new term joined the graph and the hierarchy.
	if !k.ED.HasNode("biometric identifier") {
		t.Error("new data type not in graph")
	}
	if !k.DataH.Has("biometric identifier") {
		t.Error("new data type not in hierarchy")
	}
	if err := k.DataH.Validate(); err != nil {
		t.Error(err)
	}
	// Untouched edges survive.
	foundShare := false
	for _, e := range k.ED.Edges() {
		if e.Label == "share" && e.From == "TikTak" {
			foundShare = true
		}
	}
	if !foundShare {
		t.Error("untouched share edge lost in update")
	}
}

func TestUpdateRemovalOnly(t *testing.T) {
	b, ex1, k := buildKG(t, policy)
	edited := strings.Replace(policy, "We share usage data with service providers for legitimate business purposes.\n", "", 1)
	k, st := updateKG(t, b, ex1, k, edited)
	if st.EdgesRemoved == 0 || st.EdgesAdded != 0 {
		t.Errorf("removal-only update: %+v", st)
	}
	for _, e := range k.ED.Edges() {
		if e.Label == "share" && strings.Contains(e.Condition, "legitimate") {
			t.Error("removed segment's edge still present")
		}
	}
}

func TestBuildNilTaxonomy(t *testing.T) {
	b := &Builder{}
	if _, err := b.Build(context.Background(), &extract.Extraction{}); err == nil {
		t.Error("nil taxonomy should error")
	}
}

func TestEmptyExtraction(t *testing.T) {
	b := NewBuilder(&taxonomy.Builder{Client: llm.NewSim()})
	k, err := b.Build(context.Background(), &extract.Extraction{Company: "X"})
	if err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.Edges != 0 || st.Nodes != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestUpdateNoChanges(t *testing.T) {
	b, ex1, k := buildKG(t, policy)
	before := k.Stats()
	k, st := updateKG(t, b, ex1, k, policy)
	if st.EdgesAdded != 0 || st.EdgesRemoved != 0 || st.NewTerms != 0 {
		t.Errorf("no-op update changed things: %+v", st)
	}
	if k.Stats() != before {
		t.Error("no-op update changed stats")
	}
}

func TestKnowledgeGraphJSONRoundTrip(t *testing.T) {
	_, _, k := buildKG(t, policy)
	data, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	var k2 KnowledgeGraph
	if err := json.Unmarshal(data, &k2); err != nil {
		t.Fatal(err)
	}
	if k2.Company != k.Company {
		t.Errorf("company = %q", k2.Company)
	}
	if k2.Stats() != k.Stats() {
		t.Errorf("stats: %+v vs %+v", k2.Stats(), k.Stats())
	}
	if !k2.DataH.Subsumes("data", "email") {
		t.Error("data hierarchy lost")
	}
	if k2.EntityH.Len() != k.EntityH.Len() {
		t.Errorf("entity hierarchy: %d vs %d", k2.EntityH.Len(), k.EntityH.Len())
	}
	// Edge conditions survive.
	foundCond := false
	for _, e := range k2.ED.Edges() {
		if strings.Contains(e.Condition, "legitimate business purposes") {
			foundCond = true
		}
	}
	if !foundCond {
		t.Error("edge condition lost in round trip")
	}
}
