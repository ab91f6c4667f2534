package llm

import (
	"sort"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// taxonomyRoot answers TaskTaxonomyRoot with the root concept for a term
// kind ("data" or "entity").
func taxonomyRoot(kind string) string {
	switch kind {
	case "entity":
		return "entity"
	default:
		return "data"
	}
}

// category is a synthesized intermediate taxonomy node with keyword cues.
type category struct {
	name     string
	keywords []string
}

// dataCategories are the layer-1 data subcategories the simulated model
// proposes under the root, in priority order (first matching category
// claims a term).
var dataCategories = []category{
	{"biometric data", []string{"biometric", "faceprint", "voiceprint", "fingerprint", "facial", "iris"}},
	{"financial data", []string{"payment", "credit", "card", "purchase", "transaction", "billing", "financial", "bank", "checkout", "pay"}},
	{"location data", []string{"location", "gps", "geolocation", "region", "country", "city", "geo"}},
	{"contact information", []string{"email", "phone", "address", "contact", "name"}},
	{"account information", []string{"account", "username", "password", "profile", "registration", "login", "age", "birthday", "language"}},
	{"content data", []string{"photo", "video", "image", "content", "message", "comment", "audio", "voice", "camera", "livestream", "post", "clipboard"}},
	{"social data", []string{"friend", "follower", "social", "connection", "contacts"}},
	{"usage data", []string{"usage", "interaction", "view", "click", "activity", "engagement", "search", "watch", "history", "preference", "session"}},
	{"technical data", []string{"device", "ip", "browser", "cookie", "identifier", "log", "operating", "network", "crash", "performance", "battery", "sensor", "screen", "model", "carrier", "app", "metadata", "keystroke"}},
	{"demographic data", []string{"gender", "demographic", "interest", "characteristic"}},
}

// entityCategories are the layer-1 entity subcategories.
var entityCategories = []category{
	{"user party", []string{"user", "member", "child", "parent", "contact", "friend", "follower", "creator", "seller", "buyer"}},
	{"government party", []string{"law enforcement", "regulator", "authority", "court", "government", "agency", "public body"}},
	{"service provider", []string{"provider", "processor", "cloud", "vendor", "support", "infrastructure", "moderation"}},
	{"business partner", []string{"partner", "advertiser", "merchant", "affiliate", "network", "sponsor", "platform", "corporate group", "researcher", "measurement"}},
	{"internal party", []string{"team", "employee", "engineer", "staff", "subsidiary"}},
}

func categoriesFor(kind string) []category {
	if kind == "entity" {
		return entityCategories
	}
	return dataCategories
}

// termWords is one term's tokenization as the layer rules read it: its
// content words in order, their singulars, and the set of both forms.
type termWords struct {
	words []string
	sing  []string
	forms map[string]bool
}

// tokenize returns each term's tokenization, aligned with terms.
func tokenize(terms []string) []*termWords {
	out := make([]*termWords, len(terms))
	for i, t := range terms {
		words := nlp.ContentWords(t)
		tw := &termWords{words: words, sing: make([]string, len(words)), forms: make(map[string]bool, 2*len(words))}
		for j, w := range words {
			tw.sing[j] = nlp.Singular(w)
			tw.forms[w] = true
			tw.forms[tw.sing[j]] = true
		}
		out[i] = tw
	}
	return out
}

// categorize returns the category name for a term, or "". A keyword
// matches anywhere in the term's content words, inside a longer word too
// ("app" in "application").
func categorize(kind string, term *termWords) string {
	text := strings.Join(term.words, " ")
	for _, c := range categoriesFor(kind) {
		for _, kw := range c.keywords {
			if strings.Contains(text, kw) {
				return c.name
			}
		}
	}
	return ""
}

// specializes reports whether child is a lexical specialization of parent
// (parent's content words are a strict subset of child's).
func specializes(parent, child *termWords) bool {
	if len(parent.words) == 0 || len(child.words) <= len(parent.words) {
		return false
	}
	for i, w := range parent.words {
		if !child.forms[w] && !child.forms[parent.sing[i]] {
			return false
		}
	}
	return true
}

// taxonomyLayer answers TaskTaxonomyLayer: for each frontier node, which of
// the remaining terms (or synthesized category nodes) are its immediate
// children. Each remaining term is assigned to at most one parent, and the
// assignment is deterministic.
func taxonomyLayer(kind string, frontier, remaining []string) map[string][]string {
	out := map[string][]string{}
	root := taxonomyRoot(kind)
	claimed := map[string]bool{}
	// Each term is tokenized once for the whole prompt, so the O(n²)
	// specialization checks below compare precomputed word sets.
	fw, rw := tokenize(frontier), tokenize(remaining)

	frontierSet := map[string]bool{}
	for _, f := range frontier {
		frontierSet[f] = true
	}

	// Rule 1: lexical specialization against non-root frontier nodes.
	// Prefer the most specific (longest) matching parent.
	for ti, term := range remaining {
		bestParent, bestLen := "", -1
		for fi, f := range frontier {
			if f == root {
				continue
			}
			if specializes(fw[fi], rw[ti]) && len(fw[fi].words) > bestLen {
				bestParent, bestLen = f, len(fw[fi].words)
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
	for ti, term := range remaining {
		if claimed[term] {
			continue
		}
		// Defer terms that specialize another remaining term: they will
		// attach under that term once it has been placed (next layer).
		deferred := false
		for oi, other := range remaining {
			if other != term && specializes(rw[oi], rw[ti]) {
				deferred = true
				break
			}
		}
		if deferred {
			continue
		}
		cat := categorize(kind, rw[ti])
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
