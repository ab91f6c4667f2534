package graph

import (
	"math/rand"
	"testing"
)

// refKey is the string the reference keys an edge's content by: every
// field but the segment, joined by a separator.
func refKey(e Edge) string {
	return e.From + "\x1f" + e.To + "\x1f" + e.Label + "\x1f" + e.Condition + "\x1f" + e.Permission + "\x1f" + e.Subject + "\x1f" + e.Other
}

// refGraph keeps the edge bookkeeping Graph used before its edge set was
// keyed by Edge values: a set of concatenated key strings, and a scan of
// the source node's out-edges for the stored duplicate. Nodes are left
// out; Graph's node handling did not change.
type refGraph struct {
	out     map[string][]*Edge
	edges   []*Edge
	edgeSet map[string]bool
}

func newRefGraph() *refGraph {
	return &refGraph{out: map[string][]*Edge{}, edgeSet: map[string]bool{}}
}

func (g *refGraph) AddEdge(e Edge) *Edge {
	key := refKey(e)
	dedupeKey := key + "\x1f" + e.SegmentID
	if g.edgeSet[dedupeKey] {
		for _, ex := range g.out[e.From] {
			if ex.SegmentID == e.SegmentID && refKey(*ex) == key {
				return ex
			}
		}
	}
	stored := &e
	g.edges = append(g.edges, stored)
	g.edgeSet[dedupeKey] = true
	g.out[e.From] = append(g.out[e.From], stored)
	return stored
}

// positions maps each stored edge to its insertion position.
func positions(edges []*Edge) map[*Edge]int {
	pos := make(map[*Edge]int, len(edges))
	for i, e := range edges {
		pos[e] = i
	}
	return pos
}

// TestEdgeSetMatchesReference: over random edge sequences full of exact
// and near duplicates, Graph stores the edges the reference stores, in the
// same order, and AddEdge returns the stored edge at the same position.
func TestEdgeSetMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	pick := func(vals ...string) string { return vals[r.Intn(len(vals))] }
	nodes := []string{"a", "b", "c", ""}
	for iter := 0; iter < 300; iter++ {
		g, ref := New(), newRefGraph()
		for step := 0; step < 60; step++ {
			e := Edge{
				From: pick(nodes...), To: pick(nodes...), Label: pick("share", "sell"),
				Condition: pick("", "consent"), Permission: pick("", "allow", "deny"),
				Subject: pick("", "user"), Other: pick("", "partner"), SegmentID: pick("s1", "s2", "s3", ""),
			}
			got, want := g.AddEdge(e), ref.AddEdge(e)
			if gp, wp := positions(g.Edges())[got], positions(ref.edges)[want]; gp != wp || *got != *want {
				t.Fatalf("iter %d: AddEdge(%+v) returned edge %d, reference %d", iter, e, gp, wp)
			}
			if len(g.Edges()) != len(ref.edges) {
				t.Fatalf("iter %d: %d edges, reference %d", iter, len(g.Edges()), len(ref.edges))
			}
			for i, e := range g.Edges() {
				if *e != *ref.edges[i] {
					t.Fatalf("iter %d: edge %d = %+v, reference %+v", iter, i, *e, *ref.edges[i])
				}
			}
		}
	}
}

// TestEdgeDedupeComparesFields: two edges whose fields differ are both
// stored even when their fields joined by the reference's separator read
// the same; the concatenated key the reference dedups on took the second for
// a duplicate of the first.
func TestEdgeDedupeComparesFields(t *testing.T) {
	first := Edge{From: "a", To: "b\x1fc", Label: "d"}
	second := Edge{From: "a", To: "b", Label: "c\x1fd"}
	if refKey(first) != refKey(second) {
		t.Fatal("keys differ; the case shows nothing")
	}
	g := New()
	g.AddEdge(first)
	if got := g.AddEdge(second); *got != second || g.NumEdges() != 2 {
		t.Errorf("AddEdge returned %+v with %d edges stored", *got, g.NumEdges())
	}
	ref := newRefGraph()
	ref.AddEdge(first)
	if ref.AddEdge(second); len(ref.edges) != 1 {
		t.Errorf("reference stored %d edges; the case no longer shows the old collision", len(ref.edges))
	}
}
