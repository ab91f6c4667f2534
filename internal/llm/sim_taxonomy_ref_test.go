package llm

// A per-pair implementation of the simulated CoL layer, in which every
// specializes call tokenizes both of its terms. It is the reference that
// the production taxonomyLayer, which tokenizes each term once per
// prompt, must match answer for answer (TestTaxonomyLayerMatchesReference
// and the full-CoL runs in taxonomy_identity_test.go).

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// ReferenceLayerAnswer returns the response text the reference
// implementation gives a TaskTaxonomyLayer request. It is exported for the
// external identity test, which drives whole CoL runs through
// taxonomy.Builder, a package this one cannot import.
func ReferenceLayerAnswer(req Request) (string, error) {
	text, err := json.Marshal(map[string]map[string][]string{
		"children": refTaxonomyLayer(
			req.Input["kind"],
			splitField(req.Input["frontier"]),
			splitField(req.Input["remaining"]),
		),
	})
	return string(text), err
}

// refCategorize returns the category name for a term, or "".
func refCategorize(kind, term string) string {
	words := nlp.ContentWords(term)
	lower := " " + strings.Join(words, " ") + " "
	for _, c := range categoriesFor(kind) {
		for _, kw := range c.keywords {
			if strings.Contains(lower, " "+kw+" ") || strings.Contains(lower, kw) {
				return c.name
			}
		}
	}
	return ""
}

// refSpecializes reports whether child is a lexical specialization of parent
// (parent's content words are a strict subset of child's).
func refSpecializes(parent, child string) bool {
	pw := nlp.ContentWords(parent)
	cw := nlp.ContentWords(child)
	if len(pw) == 0 || len(cw) <= len(pw) {
		return false
	}
	set := map[string]bool{}
	for _, w := range cw {
		set[w] = true
		set[nlp.Singular(w)] = true
	}
	for _, w := range pw {
		if !set[w] && !set[nlp.Singular(w)] {
			return false
		}
	}
	return true
}

// refTaxonomyLayer answers TaskTaxonomyLayer: for each frontier node, which of
// the remaining terms (or synthesized category nodes) are its immediate
// children. Each remaining term is assigned to at most one parent, and the
// assignment is deterministic.
func refTaxonomyLayer(kind string, frontier, remaining []string) map[string][]string {
	out := map[string][]string{}
	root := taxonomyRoot(kind)
	claimed := map[string]bool{}

	frontierSet := map[string]bool{}
	for _, f := range frontier {
		frontierSet[f] = true
	}

	// Rule 1: lexical specialization against non-root frontier nodes.
	// Prefer the most specific (longest) matching parent.
	for _, term := range remaining {
		bestParent, bestLen := "", -1
		for _, f := range frontier {
			if f == root {
				continue
			}
			if refSpecializes(f, term) && len(nlp.ContentWords(f)) > bestLen {
				bestParent, bestLen = f, len(nlp.ContentWords(f))
			}
		}
		if bestParent != "" {
			out[bestParent] = append(out[bestParent], term)
			claimed[term] = true
		}
	}

	// Rule 2: category bucketing. When the category node is on the
	// frontier, unclaimed matching terms become its children. When only
	// the root is on the frontier, the categories themselves are proposed
	// as the root's children (synthesized intermediate nodes).
	neededCategories := map[string]bool{}
	for _, term := range remaining {
		if claimed[term] {
			continue
		}
		// Defer terms that specialize another remaining term: they will
		// attach under that term once it has been placed (next layer).
		deferred := false
		for _, other := range remaining {
			if other != term && refSpecializes(other, term) {
				deferred = true
				break
			}
		}
		if deferred {
			continue
		}
		cat := refCategorize(kind, term)
		if cat == "" || cat == term {
			continue
		}
		if frontierSet[cat] {
			out[cat] = append(out[cat], term)
			claimed[term] = true
		} else if frontierSet[root] {
			neededCategories[cat] = true
		}
	}
	if frontierSet[root] && len(neededCategories) > 0 {
		cats := make([]string, 0, len(neededCategories))
		for c := range neededCategories {
			if !claimed[c] {
				cats = append(cats, c)
			}
		}
		sort.Strings(cats)
		out[root] = append(out[root], cats...)
	}
	for k := range out {
		sort.Strings(out[k])
	}
	return out
}

// TestTaxonomyLayerMatchesReference compares the two implementations on
// randomized layer prompts: terms of one to four words drawn from the
// category keywords, plurals, modifiers and stopwords (so some terms have
// no content words at all), with frontiers that mix roots, category nodes
// and terms.
func TestTaxonomyLayerMatchesReference(t *testing.T) {
	words := []string{
		"the", "your", "of", "and", "other", "data", "information", "party",
		"precise", "approximate", "third", "advertising", "device", "devices",
		"addresses", "histories", "cookies", "partners", "children", "networks",
	}
	var nodes []string
	for _, cats := range [][]category{dataCategories, entityCategories} {
		for _, c := range cats {
			nodes = append(nodes, c.name)
			words = append(words, c.keywords...)
		}
	}
	r := rand.New(rand.NewSource(1))
	term := func() string {
		ws := make([]string, 1+r.Intn(4))
		for i := range ws {
			ws[i] = words[r.Intn(len(words))]
		}
		return strings.Join(ws, " ")
	}
	for i := 0; i < 1000; i++ {
		kind := []string{"data", "entity"}[i%2]
		remaining := make([]string, r.Intn(40))
		for j := range remaining {
			remaining[j] = term()
		}
		frontier := make([]string, 1+r.Intn(8))
		for j := range frontier {
			switch r.Intn(3) {
			case 0:
				frontier[j] = taxonomyRoot(kind)
			case 1:
				frontier[j] = nodes[r.Intn(len(nodes))]
			default:
				frontier[j] = term()
			}
		}
		got := taxonomyLayer(kind, frontier, remaining)
		want := refTaxonomyLayer(kind, frontier, remaining)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("prompt %d (%s) differs\nfrontier:  %q\nremaining: %q\ngot:  %v\nwant: %v", i, kind, frontier, remaining, got, want)
		}
	}
}
