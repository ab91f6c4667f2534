// Package taxonomy implements Chain-of-Layer (CoL) taxonomy induction: the
// hierarchy is built iteratively by prompting the language model for a root
// concept and then, layer by layer, for the immediate subcategories of each
// frontier node, with an optional SciBERT-style similarity filter that
// removes unlikely parent/child relationships. Every input term ends up in
// the hierarchy exactly once, per the CoL invariant.
package taxonomy

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
	"github.com/privacy-quagmire/quagmire/internal/obs"
)

// Builder constructs hierarchies via CoL prompting. Builds may run
// concurrently on a shared Builder: each call accumulates its counters
// privately and adds them to the quagmire_taxonomy_* metrics when it
// finishes.
type Builder struct {
	// Client is the language model used for root and layer prompts.
	Client llm.Client
	// Filter, when non-nil, scores candidate parent/child pairs and drops
	// those below FilterThreshold (the paper's optional SciBERT filter).
	Filter *embed.Model
	// FilterThreshold is the minimum similarity for a filtered edge.
	FilterThreshold float64
	// Obs, when non-nil, receives induction metrics: CoL rounds, edges
	// rejected by the similarity filter, fallback attachments, LLM-call
	// latency, and per-build wall time labeled by hierarchy kind.
	Obs *obs.Registry
}

// maxLayers bounds CoL iterations.
const maxLayers = 6

// buildStats counts one Build's effort and filtering.
type buildStats struct {
	// Layers is the number of CoL iterations performed.
	Layers int
	// LLMCalls counts model invocations.
	LLMCalls int
	// Filtered counts parent/child pairs rejected by the similarity
	// filter.
	Filtered int
	// Fallback counts terms attached directly to the root because no
	// layer claimed them.
	Fallback int
}

// Build induces a hierarchy of the given kind ("data" or "entity") over the
// terms. Terms are canonicalized and deduplicated first.
func (b *Builder) Build(ctx context.Context, kind string, terms []string) (*graph.Hierarchy, error) {
	if b.Client == nil {
		return nil, fmt.Errorf("taxonomy: Builder.Client is nil")
	}
	var st buildStats
	start := time.Now()
	defer func() {
		b.Obs.Histogram("quagmire_taxonomy_build_seconds", obs.TimeBuckets, "kind", kind).ObserveSince(start)
		b.Obs.Counter("quagmire_taxonomy_col_rounds_total").Add(uint64(st.Layers))
		b.Obs.Counter("quagmire_taxonomy_llm_calls_total").Add(uint64(st.LLMCalls))
		b.Obs.Counter("quagmire_taxonomy_edges_filtered_total").Add(uint64(st.Filtered))
		b.Obs.Counter("quagmire_taxonomy_fallback_total").Add(uint64(st.Fallback))
	}()
	canon := map[string]bool{}
	var remaining []string
	for _, t := range terms {
		c := nlp.CanonicalTerm(t)
		if c == "" || canon[c] {
			continue
		}
		canon[c] = true
		remaining = append(remaining, c)
	}
	sort.Strings(remaining)

	root, err := b.root(ctx, &st, kind, remaining)
	if err != nil {
		return nil, err
	}
	h := graph.NewHierarchy(root)
	remaining = removeTerm(remaining, root)

	frontier := []string{root}
	for layer := 0; layer < maxLayers && len(remaining) > 0 && len(frontier) > 0; layer++ {
		st.Layers++
		children, err := b.layer(ctx, &st, kind, frontier, remaining)
		if err != nil {
			return nil, err
		}
		var nextFrontier []string
		progressed := false
		parents := make([]string, 0, len(children))
		for p := range children {
			parents = append(parents, p)
		}
		sort.Strings(parents)
		for _, parent := range parents {
			for _, child := range children[parent] {
				if h.Has(child) {
					continue
				}
				if b.rejectedByFilter(parent, child) {
					st.Filtered++
					continue
				}
				if err := h.Add(parent, child); err != nil {
					// The model proposed an inconsistent placement; skip
					// it and let the fallback handle the term.
					continue
				}
				progressed = true
				nextFrontier = append(nextFrontier, child)
				remaining = removeTerm(remaining, child)
			}
		}
		if !progressed {
			break
		}
		frontier = nextFrontier
	}
	// CoL invariant: every term appears exactly once. Unclaimed terms
	// attach to the root.
	for _, t := range remaining {
		if !h.Has(t) {
			if err := h.Add(root, t); err != nil {
				return nil, err
			}
			st.Fallback++
		}
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// rejectedByFilter applies the similarity filter to a candidate edge.
// Synthesized category parents always pass: the filter targets noisy
// term-to-term attachments, not abstract buckets.
func (b *Builder) rejectedByFilter(parent, child string) bool {
	if b.Filter == nil || b.FilterThreshold <= 0 {
		return false
	}
	if len(nlp.ContentWords(parent)) == 0 {
		return false
	}
	return b.Filter.Similarity(parent, child) < b.FilterThreshold
}

func (b *Builder) root(ctx context.Context, st *buildStats, kind string, terms []string) (string, error) {
	st.LLMCalls++
	defer b.Obs.Histogram("quagmire_llm_call_seconds", obs.TimeBuckets, "phase", "taxonomy").ObserveSince(time.Now())
	resp, err := b.Client.Complete(ctx, llm.TaxonomyRootPrompt(kind, terms))
	if err != nil {
		return "", fmt.Errorf("taxonomy: root prompt: %w", err)
	}
	var out struct {
		Root string `json:"root"`
	}
	if err := json.Unmarshal([]byte(resp.Text), &out); err != nil || out.Root == "" {
		return "", fmt.Errorf("taxonomy: %w: %q", llm.ErrMalformedOutput, resp.Text)
	}
	return nlp.CanonicalTerm(out.Root), nil
}

func (b *Builder) layer(ctx context.Context, st *buildStats, kind string, frontier, remaining []string) (map[string][]string, error) {
	st.LLMCalls++
	defer b.Obs.Histogram("quagmire_llm_call_seconds", obs.TimeBuckets, "phase", "taxonomy").ObserveSince(time.Now())
	resp, err := b.Client.Complete(ctx, llm.TaxonomyLayerPrompt(kind, frontier, remaining))
	if err != nil {
		return nil, fmt.Errorf("taxonomy: layer prompt: %w", err)
	}
	var out struct {
		Children map[string][]string `json:"children"`
	}
	if err := json.Unmarshal([]byte(resp.Text), &out); err != nil {
		return nil, fmt.Errorf("taxonomy: %w: %q", llm.ErrMalformedOutput, resp.Text)
	}
	return out.Children, nil
}

func removeTerm(terms []string, t string) []string {
	out := terms[:0]
	for _, x := range terms {
		if x != t {
			out = append(out, x)
		}
	}
	return out
}
