package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// referenceNeighborhood is the per-node traversal relevantEdges ran before
// its one search over ordinals: the IDs of the nodes within depth hops of
// start, ignoring direction; empty when start names no node.
func referenceNeighborhood(g *graph.Graph, start string, depth int) map[string]bool {
	seen := map[string]bool{}
	if !g.HasNode(start) {
		return seen
	}
	frontier := []string{start}
	seen[start] = true
	for d := 0; d < depth; d++ {
		var next []string
		for _, id := range frontier {
			for _, e := range g.Edges() {
				if e.From == id && !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
				if e.To == id && !seen[e.From] {
					seen[e.From] = true
					next = append(next, e.From)
				}
			}
		}
		frontier = next
	}
	return seen
}

// referenceMatchesAction is the label test relevantEdges ran before it
// interned verb bases: the verb bases of both first words are equal, or
// the label contains the action.
func referenceMatchesAction(edgeAction, queryAction string) bool {
	if queryAction == "" {
		return true
	}
	return nlp.VerbBase(baseWord(edgeAction)) == nlp.VerbBase(baseWord(queryAction)) ||
		strings.Contains(edgeAction, queryAction)
}

// referenceRelevantEdges is the map-based subgraph extraction: one
// neighbourhood per named term and per descendant of the data term, the
// data term's non-root ancestors, then every edge between kept nodes
// whose label carries the action.
func referenceRelevantEdges(e *Engine, actor, action, data, other string) []*graph.Edge {
	if e.WholePolicy {
		return e.KG.ED.Edges()
	}
	keep := map[string]bool{}
	mark := func(id string) {
		if id == "" {
			return
		}
		for n := range referenceNeighborhood(e.KG.ED, id, e.SubgraphDepth) {
			keep[n] = true
		}
		keep[id] = true
	}
	mark(actor)
	mark(other)
	mark(data)
	if !e.NoHierarchy && e.KG.DataH.Has(data) {
		for _, t := range e.KG.DataH.Descendants(data) {
			mark(t)
		}
		for _, t := range e.KG.DataH.Ancestors(data) {
			if t != e.KG.DataH.Root {
				keep[t] = true
			}
		}
	}
	var out []*graph.Edge
	for _, ed := range e.KG.ED.Edges() {
		if keep[ed.From] && keep[ed.To] && referenceMatchesAction(ed.Label, action) {
			out = append(out, ed)
		}
	}
	return out
}

// randomKG builds a knowledge graph over a small vocabulary: a data
// hierarchy over some of the data terms (and over terms no edge names),
// edges with labels that share verb bases, self-loops, parallel edges and
// a node with an empty ID.
func randomKG(r *rand.Rand) *kg.KnowledgeGraph {
	dataTerms := []string{"contact info", "email address", "phone number", "location",
		"device id", "cookies", "usage data"}
	terms := append([]string{"acme", "user", "partners", "advertisers", "data", ""}, dataTerms...)
	labels := []string{"share", "shares", "sharing with", "collect", "collected", "sell",
		"use for ads", "disclose", "", "shar"}
	h := graph.NewHierarchy("data")
	placed := []string{"data"}
	for _, t := range append(dataTerms, "browsing history", "biometrics") {
		if r.Intn(4) == 0 {
			continue
		}
		_ = h.Add(placed[r.Intn(len(placed))], t)
		placed = append(placed, t)
	}
	g := graph.New()
	for i, n := 0, 2+r.Intn(25); i < n; i++ {
		g.AddEdge(graph.Edge{
			From:      terms[r.Intn(len(terms))],
			To:        terms[r.Intn(len(terms))],
			Label:     labels[r.Intn(len(labels))],
			SegmentID: fmt.Sprintf("s%d", r.Intn(4)),
		})
	}
	return &kg.KnowledgeGraph{Company: "acme", ED: g, DataH: h}
}

// edgeKeys renders an edge slice for comparison and failure messages.
func edgeKeys(edges []*graph.Edge) []string {
	out := make([]string, len(edges))
	for i, ed := range edges {
		out[i] = fmt.Sprintf("%+v", *ed)
	}
	return out
}

// TestRelevantEdgesMatchesReference: over random graphs and hierarchies,
// at depths 0 to 3, with and without the hierarchy, with empty actions and
// role terms the graph does not hold, the search over ordinals returns
// the reference's edges, the same edge pointers in the same order.
func TestRelevantEdgesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	roles := []string{"", "acme", "user", "partners", "advertisers", "ghost", "data",
		"contact info", "email address", "location", "cookies", "browsing history"}
	actions := []string{"", "share", "sharing", "collect", "sell", "use", "shar", "transfer", "disclos"}
	nonEmpty := 0
	for trial := 0; trial < 400; trial++ {
		e := &Engine{KG: randomKG(r)}
		for q := 0; q < 12; q++ {
			e.SubgraphDepth = r.Intn(4)
			e.NoHierarchy = r.Intn(3) == 0
			actor, data, other := roles[r.Intn(len(roles))], roles[r.Intn(len(roles))], roles[r.Intn(len(roles))]
			action := actions[r.Intn(len(actions))]
			want := referenceRelevantEdges(e, actor, action, data, other)
			got := e.relevantEdges(actor, action, data, other)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: depth %d, no hierarchy %v, (%q, %q, %q, %q):\ngot  %q\nwant %q",
					trial, e.SubgraphDepth, e.NoHierarchy, actor, action, data, other, edgeKeys(got), edgeKeys(want))
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < 1000 {
		t.Errorf("only %d of 4800 subgraphs were non-empty", nonEmpty)
	}
}

// TestRelevantEdgesMatchesReferenceOnCorpus: on generated policies, for
// the company and every edge's data type, action and receiver, the search
// over ordinals returns the reference's edges at depths 0 to 3.
func TestRelevantEdgesMatchesReferenceOnCorpus(t *testing.T) {
	for _, e := range corpusEngines(t, 10, 41) {
		for _, ed := range e.KG.ED.Edges() {
			action := nlp.VerbBase(ed.Label)
			for depth := 0; depth <= 3; depth++ {
				e.SubgraphDepth = depth
				want := referenceRelevantEdges(e, e.KG.Company, action, ed.To, ed.Other)
				if got := e.relevantEdges(e.KG.Company, action, ed.To, ed.Other); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s depth %d (%q, %q, %q):\ngot  %q\nwant %q",
						e.KG.Company, depth, action, ed.To, ed.Other, edgeKeys(got), edgeKeys(want))
				}
			}
		}
	}
}

// TestWarmBuildsNoSubgraphData: Warm builds the vocabulary index only;
// the subgraph data waits for the first question, and WholePolicy
// questions never need it.
func TestWarmBuildsNoSubgraphData(t *testing.T) {
	eng := newEngine(t)
	eng.Warm()
	if eng.subgraph != nil {
		t.Fatal("Warm built the subgraph data")
	}
	eng.WholePolicy = true
	if _, err := eng.Ask(context.Background(), translatedQuestions[0]); err != nil {
		t.Fatal(err)
	}
	if eng.subgraph != nil {
		t.Fatal("a whole-policy question built the subgraph data")
	}
	eng.WholePolicy = false
	if _, err := eng.Ask(context.Background(), translatedQuestions[0]); err != nil {
		t.Fatal(err)
	}
	if eng.subgraph == nil {
		t.Fatal("a subgraph question did not build the subgraph data")
	}
}

// TestSubgraphConcurrentFirstQuestions races 16 first questions on a
// fresh engine (run under -race): every asker gets the same subgraph data,
// so it was built once, and every answer equals the one a second engine
// gives to the same question asked sequentially.
func TestSubgraphConcurrentFirstQuestions(t *testing.T) {
	const askers = 16
	ctx := context.Background()
	ref := newEngine(t)
	want := map[string]*Result{}
	for _, q := range translatedQuestions {
		res, err := ref.Ask(ctx, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want[q] = res
	}

	eng := newEngine(t)
	start := make(chan struct{})
	got := make([]*Result, askers)
	data := make([]*subgraphIndex, askers)
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				data[i] = eng.subgraphData()
			}
			res, err := eng.Ask(ctx, translatedQuestions[i%len(translatedQuestions)])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
			if i%2 == 1 {
				data[i] = eng.subgraphData()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, x := range data {
		if x == nil || x != data[0] {
			t.Fatalf("asker %d got subgraph data %p, asker 0 got %p: built more than once", i, x, data[0])
		}
	}
	for i, res := range got {
		q := translatedQuestions[i%len(translatedQuestions)]
		if res == nil {
			continue // reported above
		}
		if d := answerDiff(res, want[q]); d != "" {
			t.Errorf("%q asked concurrently differs from sequential:\n%s", q, d)
		}
	}
}

// TestNodeFoldMatchesFullScan: over random graphs whose IDs mix ASCII
// case, the Kelvin sign (which folds to k) and long s (to s), nodeFold
// returns what a scan of every node (graph.Graph.NodeFold) returns, for
// lowercase ASCII terms and any others, node IDs or not.
func TestNodeFoldMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	alphabet := []string{"a", "k", "s", "K", "S", "K", "ſ", " ", "é", "É", "1"}
	word := func() string {
		var b strings.Builder
		for n := 1 + r.Intn(4); n > 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	for trial := 0; trial < 300; trial++ {
		g := graph.New()
		var ids []string
		for n := r.Intn(30); n > 0; n-- {
			id := word()
			g.AddNode(id, "")
			ids = append(ids, id)
		}
		e := &Engine{KG: &kg.KnowledgeGraph{ED: g}}
		for i := 0; i < 40; i++ {
			term := word()
			if len(ids) > 0 && r.Intn(2) == 0 {
				term = ids[r.Intn(len(ids))]
			}
			if r.Intn(2) == 0 {
				term = strings.ToLower(term)
			}
			want := ""
			if n := g.NodeFold(term); n != nil {
				want = n.ID
			}
			if got := e.nodeFold(term); got != want {
				t.Fatalf("nodeFold(%q) = %q, full scan %q (nodes %q)", term, got, want, ids)
			}
		}
	}
}

// TestNodeFoldConcurrentFirstLookups: the case-fold candidates are
// collected once however many first lookups race, and every racer gets
// the full scan's answer.
func TestNodeFoldConcurrentFirstLookups(t *testing.T) {
	const lookups = 16
	g := graph.New()
	for _, id := range []string{"Acme", "ACME corp", "acme", "Kelvin", "data broker"} {
		g.AddNode(id, "")
	}
	terms := []string{"acme corp", "kelvin", "acme", "data broker", "nobody"}
	e := &Engine{KG: &kg.KnowledgeGraph{ED: g}}
	start := make(chan struct{})
	got := make([]string, lookups)
	var wg sync.WaitGroup
	for i := 0; i < lookups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = e.nodeFold(terms[i%len(terms)])
		}(i)
	}
	close(start)
	wg.Wait()
	for i, id := range got {
		want := ""
		if n := g.NodeFold(terms[i%len(terms)]); n != nil {
			want = n.ID
		}
		if id != want {
			t.Errorf("lookup %d of %q = %q, full scan %q", i, terms[i%len(terms)], id, want)
		}
	}
}
