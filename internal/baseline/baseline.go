// Package baseline implements simplified analogs of the prior systems the
// paper positions itself against, for comparison experiments:
//
//   - PolicyLint-style contradiction detection (allow/deny pairs on the
//     same practice), which flags exception patterns as apparent
//     contradictions;
//   - a Polisis-style fixed data-type taxonomy, which cannot place novel
//     data types;
//   - MAPS-style fleet statistics over many policies.
package baseline

import (
	"sort"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// Contradiction is one allow/deny pair flagged by the PolicyLint-style
// detector.
type Contradiction struct {
	// Allow and Deny are the conflicting practices.
	Allow extract.Practice
	Deny  extract.Practice
	// ExceptionPattern reports whether at least one side carries a
	// condition — the "apparent contradictions [that] were actually
	// coherent exception patterns" of PolicyLint's manual review.
	ExceptionPattern bool
}

// LintReport summarizes contradiction detection over one policy.
type LintReport struct {
	// Apparent is every allow/deny conflict found by naive pairing.
	Apparent []Contradiction
	// Genuine counts conflicts with no conditions on either side.
	Genuine int
	// Exceptions counts conflicts explained by a condition.
	Exceptions int
}

// Lint runs PolicyLint-style contradiction detection: practices are paired
// naively on (action, data type with subsumption-free string match); each
// allow/deny pair is an apparent contradiction. Condition-aware refinement
// then classifies pairs as exception patterns.
func Lint(practices []extract.Practice) LintReport {
	var report LintReport
	byKey := map[string][]extract.Practice{}
	for _, p := range practices {
		key := nlp.VerbBase(firstWord(p.Action)) + "\x1f" + nlp.CanonicalTerm(p.DataType)
		byKey[key] = append(byKey[key], p)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		group := byKey[k]
		for i, a := range group {
			if a.Permission != "allow" {
				continue
			}
			for j, d := range group {
				if i == j || d.Permission != "deny" {
					continue
				}
				c := Contradiction{
					Allow:            a,
					Deny:             d,
					ExceptionPattern: a.Condition != "" || d.Condition != "",
				}
				report.Apparent = append(report.Apparent, c)
				if c.ExceptionPattern {
					report.Exceptions++
				} else {
					report.Genuine++
				}
			}
		}
	}
	return report
}

// firstWord returns an action phrase's first word, its verb.
func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

// fixedDataCategories is the closed data-type vocabulary of a
// fixed-taxonomy system (an OPP-115-era attribute list).
var fixedDataCategories = []string{
	"contact", "email", "phone", "name", "address", "location", "cookie",
	"ip address", "device", "demographic", "financial", "health",
	"survey", "social media", "user profile", "browsing", "purchase",
}

// CoverageReport quantifies how much of a term vocabulary a fixed taxonomy
// can place — the evolving-terminology failure (Challenge 2).
type CoverageReport struct {
	// Total is the number of distinct terms examined.
	Total int
	// Covered is how many matched a fixed category.
	Covered int
	// Uncovered lists the novel terms the fixed taxonomy cannot place.
	Uncovered []string
}

// FixedTaxonomyCoverage classifies data-type terms against the closed
// vocabulary.
func FixedTaxonomyCoverage(terms []string) CoverageReport {
	rep := CoverageReport{Total: len(terms)}
	for _, t := range terms {
		lower := strings.ToLower(t)
		matched := false
		for _, cat := range fixedDataCategories {
			if strings.Contains(lower, cat) {
				matched = true
				break
			}
		}
		if matched {
			rep.Covered++
		} else {
			rep.Uncovered = append(rep.Uncovered, t)
		}
	}
	sort.Strings(rep.Uncovered)
	return rep
}
