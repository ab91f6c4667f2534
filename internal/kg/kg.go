// Package kg implements Phase 2 of the pipeline: construction of the
// entity–data knowledge graph (who performs which actions on what data,
// with conditions as boolean predicates on edges) and the Chain-of-Layer
// data and entity hierarchies — Algorithm 1 lines 11–17. Every policy
// version's graph and hierarchies are built from its whole extraction, so
// a version answers alike however it was stored; each edge keeps its
// statement's segment ID, which is how Compare tells what a new version
// changed.
package kg

import (
	"context"
	"fmt"
	"sort"

	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
	"github.com/privacy-quagmire/quagmire/internal/segment"
	"github.com/privacy-quagmire/quagmire/internal/taxonomy"
)

// KnowledgeGraph is the Phase 2 output: the entity–data multigraph plus
// the two hierarchies.
type KnowledgeGraph struct {
	// Company is the policy's organization.
	Company string `json:"company"`
	// ED is the entity–data graph: [actor]-action->[object] edges with
	// condition predicates.
	ED *graph.Graph `json:"ed"`
	// DataH organizes data types by subsumption.
	DataH *graph.Hierarchy `json:"data_hierarchy"`
	// EntityH organizes entities by subsumption.
	EntityH *graph.Hierarchy `json:"entity_hierarchy"`
}

// Stats are the Table 1 extraction statistics.
type Stats struct {
	// Nodes is the total node count of the entity–data graph.
	Nodes int
	// Edges is the total data-practice edge count.
	Edges int
	// Entities is the number of distinct acting/receiving parties.
	Entities int
	// DataTypes is the number of distinct data types.
	DataTypes int
}

// Stats computes the Table 1 metrics for the graph.
func (k *KnowledgeGraph) Stats() Stats {
	entities := map[string]bool{}
	dataTypes := map[string]bool{}
	for _, e := range k.ED.Edges() {
		entities[e.From] = true
		if e.Other != "" {
			entities[e.Other] = true
		}
		dataTypes[e.To] = true
	}
	// Objects that also act are entities, not data types.
	for d := range dataTypes {
		if entities[d] {
			delete(dataTypes, d)
		}
	}
	return Stats{
		Nodes:     k.ED.NumNodes(),
		Edges:     k.ED.NumEdges(),
		Entities:  len(entities),
		DataTypes: len(dataTypes),
	}
}

// Entities returns the distinct acting/receiving parties, sorted.
func (k *KnowledgeGraph) Entities() []string {
	set := map[string]bool{}
	for _, e := range k.ED.Edges() {
		set[e.From] = true
		if e.Other != "" {
			set[e.Other] = true
		}
	}
	return sortedKeys(set)
}

// DataTypes returns the distinct data objects, sorted.
func (k *KnowledgeGraph) DataTypes() []string {
	set := map[string]bool{}
	ents := map[string]bool{}
	for _, e := range k.ED.Edges() {
		set[e.To] = true
		ents[e.From] = true
		if e.Other != "" {
			ents[e.Other] = true
		}
	}
	for d := range set {
		if ents[d] {
			delete(set, d)
		}
	}
	return sortedKeys(set)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Builder constructs knowledge graphs.
type Builder struct {
	// Taxonomy builds the hierarchies; required.
	Taxonomy *taxonomy.Builder
}

// NewBuilder returns a builder over the given taxonomy builder.
func NewBuilder(tb *taxonomy.Builder) *Builder { return &Builder{Taxonomy: tb} }

// edgeOf converts one extracted practice into a graph edge in the paper's
// [actor]-action->[object] form: the actor is the party performing the
// action (direction-dependent), the counterparty rides along as Other.
func edgeOf(p extract.Practice) graph.Edge {
	actorRole, otherRole := llm.FlowRoles(p.ParamSet)
	actor := nlp.CanonicalTerm(actorRole)
	other := nlp.CanonicalTerm(otherRole)
	if actorRole == otherRole {
		other = "" // self-directed action (use, store, process)
	}
	// Preserve original company capitalization for readability: parties
	// that look like proper names keep their case.
	if isProper(actorRole) {
		actor = actorRole
	}
	if isProper(otherRole) && other != "" {
		other = otherRole
	}
	return graph.Edge{
		From:       actor,
		To:         p.DataType,
		Label:      p.Action,
		Condition:  p.Condition,
		Permission: p.Permission,
		Subject:    p.Subject,
		Other:      other,
		SegmentID:  p.SegmentID,
	}
}

func isProper(s string) bool {
	return s != "" && s[0] >= 'A' && s[0] <= 'Z'
}

// Build constructs the knowledge graph from a Phase 1 extraction: the
// entity–data graph from the practices and both hierarchies via CoL.
func (b *Builder) Build(ctx context.Context, ex *extract.Extraction) (*KnowledgeGraph, error) {
	if b.Taxonomy == nil {
		return nil, fmt.Errorf("kg: Builder.Taxonomy is nil")
	}
	k := &KnowledgeGraph{Company: ex.Company, ED: graph.New()}
	for _, p := range ex.Practices {
		if p.DataType == "" || p.Sender == "" {
			continue
		}
		e := edgeOf(p)
		k.ED.AddNode(e.From, "entity")
		k.ED.AddNode(e.To, "data")
		if e.Other != "" {
			k.ED.AddNode(e.Other, "entity")
		}
		k.ED.AddEdge(e)
	}
	var err error
	k.DataH, err = b.Taxonomy.Build(ctx, "data", k.DataTypes())
	if err != nil {
		return nil, fmt.Errorf("kg: data hierarchy: %w", err)
	}
	k.EntityH, err = b.Taxonomy.Build(ctx, "entity", k.Entities())
	if err != nil {
		return nil, fmt.Errorf("kg: entity hierarchy: %w", err)
	}
	return k, nil
}

// UpdateStats reports what a new policy version changed in the graph.
type UpdateStats struct {
	// EdgesRemoved counts the previous graph's edges from removed
	// statements.
	EdgesRemoved int
	// EdgesAdded counts the new graph's edges from added statements.
	EdgesAdded int
	// NewTerms counts the distinct canonical terms of the new graph that
	// the previous version's hierarchies lack.
	NewTerms int
}

// Compare reports what the new version's graph changed from the previous
// version's, given the statement diff between the two.
func Compare(prev, next *KnowledgeGraph, diff segment.Diff) UpdateStats {
	return UpdateStats{
		EdgesRemoved: edgesFrom(prev.ED, diff.Removed),
		EdgesAdded:   edgesFrom(next.ED, diff.Added),
		NewTerms:     missingTerms(prev.DataH, next.DataTypes()) + missingTerms(prev.EntityH, next.Entities()),
	}
}

// edgesFrom counts the graph's edges that came from the given statements.
func edgesFrom(g *graph.Graph, segs []segment.Segment) int {
	ids := make(map[string]bool, len(segs))
	for _, seg := range segs {
		ids[seg.ID] = true
	}
	n := 0
	for _, e := range g.Edges() {
		if ids[e.SegmentID] {
			n++
		}
	}
	return n
}

// missingTerms counts the distinct canonical forms of terms that h lacks.
func missingTerms(h *graph.Hierarchy, terms []string) int {
	missing := map[string]bool{}
	for _, t := range terms {
		if c := nlp.CanonicalTerm(t); c != "" && !h.Has(c) {
			missing[c] = true
		}
	}
	return len(missing)
}
