package nlp

import "strings"

// stopwords lists closed-class English words ignored by matching and
// similarity routines. Determiners, auxiliaries, conjunctions and the most
// frequent prepositions are included; domain words are never stopwords.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "this": true, "that": true,
	"these": true, "those": true, "some": true, "any": true, "all": true,
	"such": true, "other": true, "own": true, "same": true,
	"and": true, "or": true, "but": true, "nor": true, "so": true,
	"if": true, "then": true, "than": true, "as": true, "of": true,
	"in": true, "on": true, "at": true, "by": true, "to": true,
	"from": true, "with": true, "without": true, "for": true, "about": true,
	"into": true, "through": true, "during": true, "before": true,
	"after": true, "above": true, "below": true, "between": true,
	"under": true, "over": true, "via": true, "per": true,
	"be": true, "is": true, "am": true, "are": true, "was": true,
	"were": true, "been": true, "being": true, "do": true, "does": true,
	"did": true, "will": true, "would": true, "shall": true, "should": true,
	"can": true, "could": true, "may": true, "might": true, "must": true,
	"have": true, "has": true, "had": true,
	"not": true, "no": true, "also": true, "only": true, "both": true,
	"each": true, "more": true, "most": true, "very": true,
	"it": true, "its": true, "they": true, "them": true, "their": true,
	"we": true, "us": true, "our": true, "you": true, "your": true,
	"he": true, "she": true, "his": true, "her": true, "i": true, "my": true,
	"who": true, "whom": true, "whose": true, "which": true, "what": true,
	"when": true, "where": true, "how": true, "why": true,
	"etc": true, "eg": true, "ie": true,
}

// IsStopword reports whether the lowercase word w is a stopword.
func IsStopword(w string) bool { return stopwords[strings.ToLower(w)] }

// ContentWords returns the lowercase non-stopword word tokens of s.
func ContentWords(s string) []string {
	ws := Words(s)
	out := ws[:0]
	for _, w := range ws {
		if !stopwords[w] {
			out = append(out, w)
		}
	}
	return out
}

// NormalizePhrase canonicalizes a term or short phrase for graph-node and
// vocabulary identity: lowercase, collapse whitespace, strip leading
// determiners and trailing punctuation. It intentionally does not
// singularize; callers that want singular head nouns use Singular on top.
func NormalizePhrase(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.Trim(s, ".,;:!?\"'()[]")
	fields := strings.Fields(s)
	// Strip leading determiners/possessives.
	for len(fields) > 0 {
		switch fields[0] {
		case "a", "an", "the", "your", "our", "their", "its", "my", "his", "her", "some", "any":
			fields = fields[1:]
		default:
			return strings.Join(fields, " ")
		}
	}
	return strings.Join(fields, " ")
}

// CanonicalTerm fully normalizes a data-type or entity term: NormalizePhrase
// plus singularization of the head noun. This is the node-identity function
// used across the knowledge graph.
func CanonicalTerm(s string) string {
	return Singular(NormalizePhrase(s))
}

// JaccardWords computes the Jaccard similarity of the content-word sets of a
// and b in [0,1]. Identical word sets yield 1; disjoint sets yield 0.
func JaccardWords(a, b string) float64 {
	wa, wb := ContentWords(a), ContentWords(b)
	if len(wa) == 0 && len(wb) == 0 {
		return 1
	}
	set := make(map[string]int, len(wa))
	for _, w := range wa {
		set[w] |= 1
	}
	for _, w := range wb {
		set[w] |= 2
	}
	inter, union := 0, 0
	for _, v := range set {
		union++
		if v == 3 {
			inter++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// SplitList splits an enumeration like
// "name, age, username, password, and email" into its items, handling
// Oxford commas, "and"/"or" conjunctions and "such as"/"including" lead-ins.
func SplitList(s string) []string {
	s = strings.TrimSpace(s)
	for _, lead := range []string{"such as", "including", "for example", "e.g.", "like"} {
		if rest, ok := strings.CutPrefix(s, lead+" "); ok {
			s = rest
			break
		}
	}
	parts := strings.Split(s, ",")
	var out []string
	for _, p := range parts {
		p = strings.TrimSpace(p)
		// Split a trailing "x and y" / "x or y".
		for _, conj := range []string{" and ", " or "} {
			if i := strings.Index(p, conj); i >= 0 && !strings.Contains(p[:i], "(") {
				left := strings.TrimSpace(p[:i])
				right := strings.TrimSpace(p[i+len(conj):])
				if left != "" {
					out = append(out, left)
				}
				p = right
			}
		}
		p = strings.TrimPrefix(p, "and ")
		p = strings.TrimPrefix(p, "or ")
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
