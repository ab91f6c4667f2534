// Package compare aligns the knowledge graphs of two different companies'
// policies and reports disclosure gaps — §5's "legal teams can identify
// gaps and contradictions between policies". Unlike a version diff (same
// lineage, internal/extract.CompareVersions), cross-policy comparison
// matches practices semantically: data types align through each side's
// hierarchy and embedding similarity, so "gps location" on one side
// matches "location information" on the other.
package compare

import (
	"context"
	"encoding/json"
	"sort"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// Gap is a practice disclosed by one policy with no counterpart in the
// other.
type Gap struct {
	// Action and DataType identify the practice on the disclosing side.
	Action   string `json:"action"`
	DataType string `json:"data_type"`
	// Condition carries the disclosing side's condition, if any.
	Condition string `json:"condition,omitempty"`
}

// Report is the two-sided gap analysis.
type Report struct {
	// CompanyA and CompanyB name the sides.
	CompanyA, CompanyB string
	// OnlyA lists practices A discloses with no semantic match in B.
	OnlyA []Gap
	// OnlyB is the mirror image.
	OnlyB []Gap
	// Shared counts semantically matched practices.
	Shared int
}

// Comparer aligns two knowledge graphs.
type Comparer struct {
	// Model scores term similarity; required.
	Model *embed.Model
	// Client, when non-nil, LLM-verifies borderline candidates the same
	// way Phase 3 vocabulary translation does.
	Client llm.Client
	// Threshold is the minimum similarity for an immediate data-type
	// match; candidates between VerifyFloor and Threshold go to the LLM.
	Threshold float64
	// VerifyFloor is the lowest similarity worth LLM-verifying; default
	// 0.25.
	VerifyFloor float64
}

// equivalent decides whether two data-type terms align, combining
// embedding similarity with optional LLM verification.
func (c *Comparer) equivalent(ctx context.Context, score float64, a, b string) bool {
	threshold := c.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	if score >= threshold {
		return true
	}
	floor := c.VerifyFloor
	if floor <= 0 {
		floor = 0.25
	}
	if score < floor || c.Client == nil {
		return false
	}
	resp, err := c.Client.Complete(ctx, llm.SemanticEquivPrompt(a, b))
	if err != nil {
		return false
	}
	var out struct {
		Equivalent bool `json:"equivalent"`
	}
	if json.Unmarshal([]byte(resp.Text), &out) != nil {
		return false
	}
	return out.Equivalent
}

// Compare computes the gap report between two analyses' graphs.
func (c *Comparer) Compare(a, b *kg.KnowledgeGraph) Report {
	ctx := context.Background()
	rep := Report{CompanyA: a.Company, CompanyB: b.Company}

	pa := companyPractices(a)
	pb := companyPractices(b)

	// Index each side's practices by data type for matching.
	keysA, keysB := sortedKeys(pa), sortedKeys(pb)
	ixA, ixB := c.practiceIndex(keysA), c.practiceIndex(keysB)

	matchedB := map[string]bool{}
	for _, ka := range keysA {
		action, data := splitKey(ka)
		match := ""
		// Exact first, then similarity among same-action practices.
		if _, ok := pb[ka]; ok {
			match = ka
		} else {
			for _, m := range ixB.Search(data, 5) {
				mAction, mData := splitKey(m.Key)
				if mAction == action && c.equivalent(ctx, m.Score, data, mData) {
					match = m.Key
					break
				}
			}
		}
		if match != "" {
			matchedB[match] = true
			rep.Shared++
		} else {
			rep.OnlyA = append(rep.OnlyA, Gap{Action: action, DataType: data, Condition: pa[ka]})
		}
	}
	for _, kb := range keysB {
		if matchedB[kb] {
			continue
		}
		action, data := splitKey(kb)
		// Mirror match: check against A.
		found := false
		if _, ok := pa[kb]; ok {
			found = true
		} else {
			for _, m := range ixA.Search(data, 5) {
				mAction, mData := splitKey(m.Key)
				if mAction == action && c.equivalent(ctx, m.Score, data, mData) {
					found = true
					break
				}
			}
		}
		if !found {
			rep.OnlyB = append(rep.OnlyB, Gap{Action: action, DataType: data, Condition: pb[kb]})
		}
	}
	return rep
}

// sortedKeys returns the keys of practices, sorted.
func sortedKeys(practices map[string]string) []string {
	keys := make([]string, 0, len(practices))
	for k := range practices {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// practiceIndex indexes each practice key under its data type.
func (c *Comparer) practiceIndex(keys []string) *embed.Index {
	texts := make([]string, len(keys))
	for i, key := range keys {
		_, texts[i] = splitKey(key)
	}
	return embed.BuildIndex(c.Model, keys, texts)
}

// companyPractices collects the company's allow-practices keyed by
// normalized action+datatype, mapping to a representative condition.
func companyPractices(k *kg.KnowledgeGraph) map[string]string {
	out := map[string]string{}
	for _, e := range k.ED.Edges() {
		if e.From != k.Company || e.Permission == "deny" {
			continue
		}
		key := actionClass(e.Label) + "\x1f" + nlp.CanonicalTerm(e.To)
		if _, ok := out[key]; !ok {
			out[key] = e.Condition
		}
	}
	return out
}

// actionClass groups verbs into collect/share/process classes so that
// "obtain" on one side matches "gather" on the other.
func actionClass(action string) string {
	base := nlp.VerbBase(firstWord(action))
	switch base {
	case "collect", "receive", "obtain", "gather", "record", "access", "capture", "track", "infer", "derive", "scan", "read":
		return "collect"
	case "share", "disclose", "sell", "transfer", "send", "provide", "give", "transmit", "release", "distribute":
		return "share"
	default:
		return "process"
	}
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

func splitKey(k string) (action, data string) {
	parts := strings.SplitN(k, "\x1f", 2)
	return parts[0], parts[1]
}
