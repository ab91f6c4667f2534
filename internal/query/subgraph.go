package query

import (
	"strings"
	"unicode/utf8"

	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// subgraphIndex is what relevantEdges reads of an engine's graph, in the
// graph's node ordinals: the undirected adjacency in CSR form, each edge's
// endpoints, and each edge's label verb base, interned. It holds nothing a
// question's options decide (SubgraphDepth, NoHierarchy, WholePolicy).
type subgraphIndex struct {
	// adj[start[v]:start[v+1]] are node v's neighbours, one per edge end
	// at v, whichever way the edge points.
	start, adj []int32
	// ends[2i] and ends[2i+1] are edge i's From and To, in Edges() order.
	ends []int32
	// base[i] indexes bases with edge i's label verb base.
	base  []int32
	bases []string
}

// newSubgraphIndex builds the subgraph data of g.
func newSubgraphIndex(g *graph.Graph) *subgraphIndex {
	edges := g.Edges()
	x := &subgraphIndex{
		start: make([]int32, g.NumNodes()+1),
		adj:   make([]int32, 2*len(edges)),
		ends:  make([]int32, 2*len(edges)),
		base:  make([]int32, len(edges)),
	}
	ids := map[string]int32{}
	for i, ed := range edges {
		from, _ := g.Ordinal(ed.From)
		to, _ := g.Ordinal(ed.To)
		x.ends[2*i], x.ends[2*i+1] = from, to
		x.start[from+1]++
		x.start[to+1]++
		b := nlp.VerbBase(baseWord(ed.Label))
		id, ok := ids[b]
		if !ok {
			id = int32(len(x.bases))
			ids[b] = id
			x.bases = append(x.bases, b)
		}
		x.base[i] = id
	}
	for v := 1; v < len(x.start); v++ {
		x.start[v] += x.start[v-1]
	}
	next := append([]int32(nil), x.start[:len(x.start)-1]...)
	for i := 0; i < len(x.ends); i += 2 {
		from, to := x.ends[i], x.ends[i+1]
		x.adj[next[from]] = to
		next[from]++
		x.adj[next[to]] = from
		next[to]++
	}
	return x
}

// subgraphData returns the engine's subgraph data, building it once per
// engine at its first question. Warm does not build it, so boot, writes
// and ingest never do.
func (e *Engine) subgraphData() *subgraphIndex {
	e.subgraphOnce.Do(func() { e.subgraph = newSubgraphIndex(e.KG.ED) })
	return e.subgraph
}

// nodeFold returns the ID of the node that graph.Graph.NodeFold returns
// for term, or "" when none matches. A term with no uppercase ASCII letter
// and no byte past ASCII matches under case folding only itself and IDs
// outside that class (uppercase letters, or characters such as the Kelvin
// sign that fold to ASCII ones), so for such a term only those IDs are
// scanned, collected once per engine at its first such lookup (never by
// Warm); any other term scans every node.
func (e *Engine) nodeFold(term string) string {
	if !lowerASCII(term) {
		if n := e.KG.ED.NodeFold(term); n != nil {
			return n.ID
		}
		return ""
	}
	e.foldOnce.Do(func() {
		for _, n := range e.KG.ED.Nodes() {
			if !lowerASCII(n.ID) {
				e.foldIDs = append(e.foldIDs, n.ID)
			}
		}
	})
	best := ""
	if e.KG.ED.HasNode(term) {
		best = term
	}
	for _, id := range e.foldIDs { // sorted, so the first match is the smallest
		if strings.EqualFold(id, term) {
			if best == "" || id < best {
				best = id
			}
			break
		}
	}
	return best
}

// lowerASCII reports whether s has no uppercase ASCII letter and no byte
// past ASCII.
func lowerASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// baseID returns the index in bases of verb base b, or -1 when no edge
// label has it.
func (x *subgraphIndex) baseID(b string) int32 {
	for i, have := range x.bases {
		if have == b {
			return int32(i)
		}
	}
	return -1
}

// expand adds to keep every node within depth hops of its members, which
// queue lists and whose capacity holds every node: one breadth-first
// search from all of them at once, since the union of the radius-depth
// balls around the sources is the radius-depth ball around their union.
func (x *subgraphIndex) expand(keep []bool, queue []int32, depth int) {
	for d, frontier := 0, 0; d < depth && frontier < len(queue); d++ {
		end := len(queue)
		for _, v := range queue[frontier:end] {
			for _, w := range x.adj[x.start[v]:x.start[v+1]] {
				if !keep[w] {
					keep[w] = true
					queue = append(queue, w)
				}
			}
		}
		frontier = end
	}
}

// relevantEdges extracts the query's subgraph: edges touching the matched
// terms or any hierarchy-related data type, within SubgraphDepth hops,
// whose label carries the action, in Edges() order.
func (e *Engine) relevantEdges(actor, action, data, other string) []*graph.Edge {
	g := e.KG.ED
	if e.WholePolicy {
		return g.Edges()
	}
	x := e.subgraphData()
	keep := make([]bool, g.NumNodes())
	queue := make([]int32, 0, g.NumNodes())
	source := func(id string) {
		if v, ok := g.Ordinal(id); ok && id != "" && !keep[v] {
			keep[v] = true
			queue = append(queue, v)
		}
	}
	source(actor)
	source(other)
	source(data)
	// Hierarchy closure over the data term: descendants are sources like
	// the named terms, ancestors are kept without their neighbourhoods, as
	// candidates for subsumption reasoning.
	h := e.KG.DataH
	closure := !e.NoHierarchy && h.Has(data)
	if closure {
		for _, t := range h.Descendants(data) {
			source(t)
		}
	}
	x.expand(keep, queue, e.SubgraphDepth)
	if closure {
		for _, t := range h.Ancestors(data) {
			if v, ok := g.Ordinal(t); ok && t != h.Root {
				keep[v] = true
			}
		}
	}
	queryBase := int32(-1)
	if action != "" {
		queryBase = x.baseID(nlp.VerbBase(baseWord(action)))
	}
	var out []*graph.Edge
	for i, ed := range g.Edges() {
		if keep[x.ends[2*i]] && keep[x.ends[2*i+1]] && matchesAction(x.base[i], ed.Label, queryBase, action) {
			out = append(out, ed)
		}
	}
	return out
}

// matchesAction reports whether an edge labelled label carries the
// question's action: the question names none, the label's verb base
// (edgeBase, an index into subgraphIndex.bases) is the action's
// (queryBase, -1 when no label has it), or the label contains the action.
func matchesAction(edgeBase int32, label string, queryBase int32, action string) bool {
	return action == "" || edgeBase == queryBase || strings.Contains(label, action)
}

// baseWord is a label's or action's first word.
func baseWord(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}
