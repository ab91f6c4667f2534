// Package graph provides the directed labeled multigraph and hierarchy
// structures underlying the pipeline's knowledge representation: the
// entity–data graph (who performs which actions on what data, with
// condition predicates on edges) and the subsumption hierarchies produced
// by Chain-of-Layer taxonomy induction.
package graph

import (
	"encoding/json"
	"errors"
	"sort"
	"strings"
)

// Node is a graph vertex.
type Node struct {
	// ID is the canonical term identifying the node.
	ID string `json:"id"`
	// Kind classifies the node ("entity", "data", "category", ...).
	Kind string `json:"kind,omitempty"`
	// Attrs holds optional metadata.
	Attrs map[string]string `json:"attrs,omitempty"`

	// ord is the node's ordinal in its graph (see Graph.Ordinal).
	ord int32
}

// Edge is a directed labeled edge. Multiple edges may connect the same
// node pair with different labels or conditions.
type Edge struct {
	// From and To are node IDs.
	From string `json:"from"`
	To   string `json:"to"`
	// Label is the edge relation (for the entity–data graph, the action).
	Label string `json:"label"`
	// Condition is the boolean predicate attached to the edge, empty for
	// unconditional edges.
	Condition string `json:"condition,omitempty"`
	// Permission is "allow" or "deny".
	Permission string `json:"permission,omitempty"`
	// Subject is whose data flows on this edge.
	Subject string `json:"subject,omitempty"`
	// Other is the third participant when the edge's actor and object do
	// not tell the whole story: the receiver of an outbound share, or the
	// source of an inbound collection.
	Other string `json:"other,omitempty"`
	// SegmentID ties the edge back to the policy statement it came from.
	SegmentID string `json:"segment_id,omitempty"`
}

// String renders the edge in the paper's [from]-label->[to] notation.
func (e Edge) String() string {
	return "[" + e.From + "]-" + e.Label + "->[" + e.To + "]"
}

// Graph is a directed labeled multigraph. The zero value is not ready;
// use New.
type Graph struct {
	nodes map[string]*Node
	// edges stores all edges in insertion order; edgeSet maps each stored
	// edge's content, segment included, to it, so a duplicate is found in
	// one lookup.
	edges   []*Edge
	edgeSet map[Edge]*Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:   map[string]*Node{},
		edgeSet: map[Edge]*Edge{},
	}
}

// AddNode inserts or updates a node and returns it.
func (g *Graph) AddNode(id, kind string) *Node {
	if n, ok := g.nodes[id]; ok {
		if kind != "" && n.Kind == "" {
			n.Kind = kind
		}
		return n
	}
	n := &Node{ID: id, Kind: kind, ord: int32(len(g.nodes))}
	g.nodes[id] = n
	return n
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// NodeFold returns the node whose ID equals id under Unicode case folding,
// the smallest such ID when several do, or nil when none does. It is the
// first match a scan of Nodes() would find, without sorting them.
func (g *Graph) NodeFold(id string) *Node {
	var best *Node
	for nid, n := range g.nodes {
		if strings.EqualFold(nid, id) && (best == nil || nid < best.ID) {
			best = n
		}
	}
	return best
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(id string) bool { return g.nodes[id] != nil }

// Ordinal returns the ordinal of node id and whether the node exists. The
// graph numbers its nodes 0..NumNodes()-1 in the order they were added, so
// a slice of NumNodes() entries indexed by ordinal stands for a set of
// nodes.
func (g *Graph) Ordinal(id string) (int32, bool) {
	if n := g.nodes[id]; n != nil {
		return n.ord, true
	}
	return 0, false
}

// AddEdge inserts an edge, creating endpoints as needed. Exact duplicates
// (every field equal, segment included) are ignored. It returns the
// stored edge.
func (g *Graph) AddEdge(e Edge) *Edge {
	if ex := g.edgeSet[e]; ex != nil {
		return ex
	}
	g.AddNode(e.From, "")
	g.AddNode(e.To, "")
	stored := &e
	g.edges = append(g.edges, stored)
	g.edgeSet[e] = stored
	return stored
}

// Nodes returns all nodes sorted by ID.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Edges returns all edges in insertion order.
func (g *Graph) Edges() []*Edge { return g.edges }

// NumNodes and NumEdges report sizes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of stored edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Wire is the serialized form of a Graph: its nodes sorted by ID, then
// its edges in insertion order. A decoder that holds a Wire in a larger
// document, as the analysis codec does, restores the graph with
// Wire.Graph in the document's one JSON pass.
type Wire struct {
	Nodes []*Node `json:"nodes"`
	Edges []*Edge `json:"edges"`
}

// Wire returns the graph's serialized form. It shares the graph's nodes
// and edges, so it is for encoding and must not be modified.
func (g *Graph) Wire() *Wire {
	edges := g.edges
	if edges == nil {
		edges = []*Edge{}
	}
	return &Wire{Nodes: g.Nodes(), Edges: edges}
}

// Graph restores the graph w serializes: nodes first, keeping a repeated
// node's first kind and last attributes (the restored nodes share w's
// attribute maps), then edges in order, dropping exact duplicates as
// AddEdge does. A null node or edge is an error.
func (w *Wire) Graph() (*Graph, error) {
	g := &Graph{
		nodes:   make(map[string]*Node, len(w.Nodes)),
		edges:   make([]*Edge, 0, len(w.Edges)),
		edgeSet: make(map[Edge]*Edge, len(w.Edges)),
	}
	for _, n := range w.Nodes {
		if n == nil {
			return nil, errors.New("graph: null node")
		}
		g.AddNode(n.ID, n.Kind).Attrs = n.Attrs
	}
	for _, e := range w.Edges {
		if e == nil {
			return nil, errors.New("graph: null edge")
		}
		g.AddEdge(*e)
	}
	return g, nil
}

// MarshalJSON serializes the graph's Wire form.
func (g *Graph) MarshalJSON() ([]byte, error) { return json.Marshal(g.Wire()) }

// UnmarshalJSON restores a graph serialized with MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w Wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	restored, err := w.Graph()
	if err != nil {
		return err
	}
	*g = *restored
	return nil
}
