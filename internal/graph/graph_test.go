package graph

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode("email", "data")
	g.AddNode("email", "")
	if g.NumNodes() != 1 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.Node("email").Kind != "data" {
		t.Error("kind lost on re-add")
	}
}

// TestNodeFold checks the case-insensitive lookup returns the smallest
// folded match, the node a sorted scan of Nodes() finds first.
func TestNodeFold(t *testing.T) {
	g := New()
	for _, id := range []string{"acme corp", "Acme", "ACME"} {
		g.AddNode(id, "entity")
	}
	if n := g.NodeFold("acme"); n == nil || n.ID != "ACME" {
		t.Fatalf("NodeFold(acme) = %v, want ACME", n)
	}
	if n := g.NodeFold("globex"); n != nil {
		t.Fatalf("NodeFold(globex) = %v, want no match", n)
	}
}

func TestAddEdgeCreatesNodes(t *testing.T) {
	g := New()
	g.AddEdge(Edge{From: "user", To: "email", Label: "provide"})
	if !g.HasNode("user") || !g.HasNode("email") {
		t.Error("endpoints not created")
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestEdgeDedupe(t *testing.T) {
	g := New()
	e := Edge{From: "a", To: "b", Label: "share", SegmentID: "s1"}
	g.AddEdge(e)
	g.AddEdge(e)
	if g.NumEdges() != 1 {
		t.Errorf("duplicate edge stored: %d", g.NumEdges())
	}
	// Different condition is a distinct edge.
	e.Condition = "user consent"
	g.AddEdge(e)
	if g.NumEdges() != 2 {
		t.Errorf("conditioned edge deduped: %d", g.NumEdges())
	}
	// Same content from a different segment is also stored (provenance).
	e2 := Edge{From: "a", To: "b", Label: "share", SegmentID: "s2"}
	g.AddEdge(e2)
	if g.NumEdges() != 3 {
		t.Errorf("cross-segment edge deduped: %d", g.NumEdges())
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{From: "user", To: "email", Label: "provide"}
	if e.String() != "[user]-provide->[email]" {
		t.Errorf("String = %q", e.String())
	}
}

// TestOrdinalsAndSubgraph: the graph numbers its nodes densely in the
// order they were added, so the subgraph search can index a set of nodes
// by ordinal.
func TestOrdinalsAndSubgraph(t *testing.T) {
	g := New()
	g.AddEdge(Edge{From: "a", To: "b", Label: "x", SegmentID: "s1"})
	g.AddEdge(Edge{From: "b", To: "c", Label: "y", SegmentID: "s2"})
	g.AddEdge(Edge{From: "c", To: "d", Label: "z", SegmentID: "s2"})
	ordinals := func() map[string]int32 {
		out := map[string]int32{}
		for _, n := range g.Nodes() {
			v, ok := g.Ordinal(n.ID)
			if !ok {
				t.Fatalf("node %q has no ordinal", n.ID)
			}
			out[n.ID] = v
		}
		return out
	}
	if got, want := ordinals(), map[string]int32{"a": 0, "b": 1, "c": 2, "d": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("ordinals = %v, want %v", got, want)
	}
	if _, ok := g.Ordinal("missing"); ok {
		t.Error("a missing node has an ordinal")
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := New()
	g.AddNode("email", "data")
	g.AddEdge(Edge{From: "user", To: "email", Label: "provide", Condition: "user consent", Permission: "allow", SegmentID: "s"})
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var g2 Graph
	if err := json.Unmarshal(data, &g2); err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip: %d/%d nodes, %d/%d edges", g2.NumNodes(), g.NumNodes(), g2.NumEdges(), g.NumEdges())
	}
	if g2.Node("email").Kind != "data" {
		t.Error("node kind lost")
	}
	if g2.Edges()[0].Condition != "user consent" {
		t.Error("edge condition lost")
	}
}

func TestHierarchyBasics(t *testing.T) {
	h := NewHierarchy("data")
	mustAdd(t, h, "data", "contact information")
	mustAdd(t, h, "contact information", "email")
	mustAdd(t, h, "email", "work email")
	if !h.Subsumes("data", "work email") {
		t.Error("root should subsume leaf")
	}
	if !h.Subsumes("contact information", "email") {
		t.Error("direct parent should subsume child")
	}
	if h.Subsumes("email", "contact information") {
		t.Error("child subsumes parent?")
	}
	if !h.Subsumes("email", "email") {
		t.Error("term should subsume itself")
	}
	if h.Depth("work email") != 3 || h.Depth("data") != 0 || h.Depth("zzz") != -1 {
		t.Errorf("depths: %d %d %d", h.Depth("work email"), h.Depth("data"), h.Depth("zzz"))
	}
}

func mustAdd(t *testing.T, h *Hierarchy, parent, child string) {
	t.Helper()
	if err := h.Add(parent, child); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyUniqueness(t *testing.T) {
	h := NewHierarchy("data")
	mustAdd(t, h, "data", "email")
	if err := h.Add("data", "email"); err == nil {
		t.Error("duplicate add should fail (CoL uniqueness invariant)")
	}
	if err := h.Add("missing parent", "x"); err == nil {
		t.Error("unknown parent should fail")
	}
	if err := h.Add("email", "data"); err == nil {
		t.Error("adding root as child should fail")
	}
}

func TestHierarchyQueries(t *testing.T) {
	h := NewHierarchy("data")
	mustAdd(t, h, "data", "contact information")
	mustAdd(t, h, "contact information", "email")
	mustAdd(t, h, "contact information", "phone number")
	desc := h.Descendants("contact information")
	if len(desc) != 2 {
		t.Errorf("descendants = %v", desc)
	}
	anc := h.Ancestors("email")
	if len(anc) != 2 || anc[0] != "contact information" || anc[1] != "data" {
		t.Errorf("ancestors = %v", anc)
	}
	kids := h.Children("contact information")
	if len(kids) != 2 || kids[0] != "email" {
		t.Errorf("children = %v", kids)
	}
	if h.Len() != 4 {
		t.Errorf("len = %d", h.Len())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestHierarchyJSONRoundTrip(t *testing.T) {
	h := NewHierarchy("data")
	mustAdd(t, h, "data", "technical data")
	mustAdd(t, h, "technical data", "cookie")
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var h2 Hierarchy
	if err := json.Unmarshal(data, &h2); err != nil {
		t.Fatal(err)
	}
	if !h2.Subsumes("data", "cookie") || h2.Len() != 3 {
		t.Errorf("round trip broken: %v", h2.Terms())
	}
}

// TestWireFormPinned pins the serialized form of an empty graph and a
// root-only hierarchy: every field is written, empty or not, so a stored
// analysis always carries each section's full shape.
func TestWireFormPinned(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{New(), `{"nodes":[],"edges":[]}`},
		{NewHierarchy("data"), `{"root":"data","parent":{}}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%T serialized as %s, want %s", c.v, got, c.want)
		}
	}
}

// TestWireRestoreRefusals: a null node or edge, an orphaned term and a
// root with a parent are errors, whether the graph is restored from its
// own JSON or from a wire struct decoded in a larger document.
func TestWireRestoreRefusals(t *testing.T) {
	for name, c := range map[string]struct {
		v    any
		data string
		want string
	}{
		"null node":     {&Graph{}, `{"nodes":[null],"edges":[]}`, "null node"},
		"null edge":     {&Graph{}, `{"nodes":[],"edges":[null]}`, "null edge"},
		"orphan":        {&Hierarchy{}, `{"root":"r","parent":{"a":"b","c":"a"}}`, "orphaned hierarchy entries [a c]"},
		"cycle":         {&Hierarchy{}, `{"root":"r","parent":{"a":"b","b":"a","c":"r"}}`, "orphaned hierarchy entries [a b]"},
		"root as child": {&Hierarchy{}, `{"root":"r","parent":{"r":"x","x":"r"}}`, "cannot add root"},
	} {
		err := json.Unmarshal([]byte(c.data), c.v)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
}

// Property: a randomly grown hierarchy always validates, and Subsumes is
// antisymmetric for distinct terms.
func TestHierarchyProperty(t *testing.T) {
	f := func(parents []uint8) bool {
		h := NewHierarchy("root")
		terms := []string{"root"}
		for i, p := range parents {
			child := fmt.Sprintf("t%d", i)
			parent := terms[int(p)%len(terms)]
			if err := h.Add(parent, child); err != nil {
				return false
			}
			terms = append(terms, child)
		}
		if h.Validate() != nil {
			return false
		}
		for _, a := range terms {
			for _, b := range terms {
				if a != b && h.Subsumes(a, b) && h.Subsumes(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGraphDOT(t *testing.T) {
	g := New()
	g.AddNode("TikTak", "entity")
	g.AddNode("email", "data")
	g.AddEdge(Edge{From: "TikTak", To: "email", Label: "collect", Condition: "you consent"})
	g.AddEdge(Edge{From: "TikTak", To: "email", Label: "sell", Permission: "deny"})
	out := g.DOT("policy graph")
	for _, want := range []string{
		"digraph policy_graph {",
		`TikTak [label="TikTak" shape=box]`,
		`email [label="email" shape=ellipse]`,
		`label="collect"`,
		`tooltip="when you consent"`,
		"style=dashed",
		"color=red",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Deterministic.
	if out != g.DOT("policy graph") {
		t.Error("DOT output nondeterministic")
	}
}

func TestHierarchyDOT(t *testing.T) {
	h := NewHierarchy("data")
	mustAdd(t, h, "data", "contact information")
	mustAdd(t, h, "contact information", "email")
	out := h.DOT("data hierarchy")
	for _, want := range []string{
		"digraph data_hierarchy {",
		"data -> contact_information;",
		"contact_information -> email;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hierarchy DOT missing %q:\n%s", want, out)
		}
	}
}
