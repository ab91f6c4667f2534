package graph

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Hierarchy is a rooted subsumption tree (each node has at most one
// parent), the output shape of Chain-of-Layer taxonomy induction.
type Hierarchy struct {
	// Root is the root concept.
	Root string
	// parent maps child -> parent. Root has no entry.
	parent map[string]string
	// children maps parent -> sorted children.
	children map[string][]string
}

// NewHierarchy returns a hierarchy with the given root.
func NewHierarchy(root string) *Hierarchy {
	return &Hierarchy{Root: root, parent: map[string]string{}, children: map[string][]string{}}
}

// Add places child under parent. The parent must already be in the
// hierarchy (or be the root). A node may be added only once — re-adding is
// an error, preserving the CoL invariant that "every entity appears exactly
// once in the final taxonomy".
func (h *Hierarchy) Add(parent, child string) error {
	if child == h.Root {
		return fmt.Errorf("graph: cannot add root %q as child", child)
	}
	if parent != h.Root && !h.Has(parent) {
		return fmt.Errorf("graph: parent %q not in hierarchy", parent)
	}
	if h.Has(child) {
		return fmt.Errorf("graph: %q already in hierarchy under %q", child, h.parent[child])
	}
	h.parent[child] = parent
	h.children[parent] = insertSorted(h.children[parent], child)
	return nil
}

func insertSorted(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Has reports whether the term is in the hierarchy (the root always is).
func (h *Hierarchy) Has(term string) bool {
	if term == h.Root {
		return true
	}
	_, ok := h.parent[term]
	return ok
}

// Parent returns the parent of term and whether it exists. The root has no
// parent.
func (h *Hierarchy) Parent(term string) (string, bool) {
	p, ok := h.parent[term]
	return p, ok
}

// Children returns the direct children of term, sorted.
func (h *Hierarchy) Children(term string) []string { return h.children[term] }

// Terms returns all terms including the root, sorted.
func (h *Hierarchy) Terms() []string {
	out := make([]string, 0, len(h.parent)+1)
	out = append(out, h.Root)
	for c := range h.parent {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of terms including the root.
func (h *Hierarchy) Len() int { return len(h.parent) + 1 }

// IsAncestor reports whether a is an ancestor of b (strictly above it).
func (h *Hierarchy) IsAncestor(a, b string) bool {
	if a == b {
		return false
	}
	cur := b
	for {
		p, ok := h.parent[cur]
		if !ok {
			return false
		}
		if p == a {
			return true
		}
		cur = p
	}
}

// Subsumes reports whether general subsumes specific: equal terms or
// general is an ancestor of specific. This is the inference the paper uses
// ("if a policy allows sharing contact information and email address is a
// subtype, the hierarchy enables proper inference").
func (h *Hierarchy) Subsumes(general, specific string) bool {
	return general == specific || h.IsAncestor(general, specific)
}

// Descendants returns all terms strictly below term.
func (h *Hierarchy) Descendants(term string) []string {
	var out []string
	var walk func(t string)
	walk = func(t string) {
		for _, c := range h.children[t] {
			out = append(out, c)
			walk(c)
		}
	}
	walk(term)
	sort.Strings(out)
	return out
}

// Ancestors returns the chain from term's parent up to the root.
func (h *Hierarchy) Ancestors(term string) []string {
	var out []string
	cur := term
	for {
		p, ok := h.parent[cur]
		if !ok {
			return out
		}
		out = append(out, p)
		cur = p
	}
}

// Depth returns the number of edges from the root to term; the root is 0.
// Unknown terms return -1.
func (h *Hierarchy) Depth(term string) int {
	if term == h.Root {
		return 0
	}
	if !h.Has(term) {
		return -1
	}
	return len(h.Ancestors(term))
}

// Validate checks structural invariants: acyclicity and parent membership.
func (h *Hierarchy) Validate() error {
	for child := range h.parent {
		seen := map[string]bool{child: true}
		cur := child
		for {
			p, ok := h.parent[cur]
			if !ok {
				if cur != h.Root {
					return fmt.Errorf("graph: %q's chain ends at %q, not root", child, cur)
				}
				break
			}
			if seen[p] {
				return fmt.Errorf("graph: cycle through %q", p)
			}
			seen[p] = true
			cur = p
		}
	}
	return nil
}

// HierarchyWire is the serialized form of a Hierarchy: its root and each
// other term's parent. A decoder that holds one in a larger document, as
// the analysis codec does, restores the hierarchy with
// HierarchyWire.Hierarchy in the document's one JSON pass.
type HierarchyWire struct {
	Root   string            `json:"root"`
	Parent map[string]string `json:"parent"`
}

// Wire returns the hierarchy's serialized form. It shares the hierarchy's
// parent map, so it is for encoding and must not be modified.
func (h *Hierarchy) Wire() *HierarchyWire {
	return &HierarchyWire{Root: h.Root, Parent: h.parent}
}

// Hierarchy restores the hierarchy w serializes. Every term must hang
// below the root: a term whose parent chain never reaches it is an
// orphan, and the root itself cannot have a parent.
func (w *HierarchyWire) Hierarchy() (*Hierarchy, error) {
	restored := NewHierarchy(w.Root)
	// Insert parents before children.
	var pending []string
	for c := range w.Parent {
		pending = append(pending, c)
	}
	sort.Strings(pending)
	for len(pending) > 0 {
		progressed := false
		var next []string
		for _, c := range pending {
			p := w.Parent[c]
			if restored.Has(p) {
				if err := restored.Add(p, c); err != nil {
					return nil, err
				}
				progressed = true
			} else {
				next = append(next, c)
			}
		}
		if !progressed {
			return nil, fmt.Errorf("graph: orphaned hierarchy entries %v", next)
		}
		pending = next
	}
	return restored, nil
}

// MarshalJSON serializes the hierarchy's Wire form.
func (h *Hierarchy) MarshalJSON() ([]byte, error) { return json.Marshal(h.Wire()) }

// UnmarshalJSON restores a hierarchy serialized with MarshalJSON.
func (h *Hierarchy) UnmarshalJSON(data []byte) error {
	var w HierarchyWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	restored, err := w.Hierarchy()
	if err != nil {
		return err
	}
	*h = *restored
	return nil
}
