package llm

import (
	"strconv"
	"strings"
)

// ParamSet is the JSON wire format for one extracted data practice — the
// six Contextual-Integrity-derived elements plus the permission flag from
// Algorithm 1 (θ, ρ, κ, π, α, c, p).
type ParamSet struct {
	// Sender is the party the data flows from.
	Sender string `json:"sender"`
	// Receiver is the party the data flows to.
	Receiver string `json:"receiver"`
	// Subject is whose data it is (normalized to "user" for data subjects).
	Subject string `json:"subject"`
	// DataType is the singularized data type.
	DataType string `json:"data_type"`
	// Action is the base-form verb of the practice.
	Action string `json:"action"`
	// Condition is the verbatim circumstance under which the action
	// occurs; vague terms are preserved as-is.
	Condition string `json:"condition,omitempty"`
	// Permission is "allow" or "deny".
	Permission string `json:"permission"`
}

// extractFewShots are the few-shot examples embedded in the extraction
// prompt, demonstrating compound-statement decomposition, normalization and
// condition preservation exactly as §3 describes.
const extractFewShots = `Example 1.
Statement: "Acme shares your email addresses with advertising partners."
Output: [{"sender":"Acme","receiver":"advertising partner","subject":"user","data_type":"email address","action":"share","permission":"allow"}]

Example 2.
Statement: "If you consent, Acme collects your precise location for legitimate business purposes."
Output: [{"sender":"user","receiver":"Acme","subject":"user","data_type":"precise location","action":"collect","condition":"user consent AND legitimate business purposes","permission":"allow"}]

Example 3.
Statement: "We do not sell your personal information."
Output: [{"sender":"Acme","receiver":"third party","subject":"user","data_type":"personal information","action":"sell","permission":"deny"}]

Example 4.
Statement: "You may provide profile information, such as a name, an email, and a photo."
Output: [{"sender":"user","receiver":"Acme","subject":"user","data_type":"name","action":"provide","permission":"allow"},
         {"sender":"user","receiver":"Acme","subject":"user","data_type":"email","action":"provide","permission":"allow"},
         {"sender":"user","receiver":"Acme","subject":"user","data_type":"photo","action":"provide","permission":"allow"}]`

// CompanyNamePrompt renders the company-name identification prompt over the
// first 1000 characters of the policy, per §3.
//
// The prompts are built by concatenation, with strconv.Quote where a value
// is quoted (the bytes fmt's %q writes): a prompt's bytes are its cache
// key.
func CompanyNamePrompt(policyPrefix string) Request {
	if len(policyPrefix) > 1000 {
		policyPrefix = policyPrefix[:1000]
	}
	return Request{
		Task: TaskCompanyName,
		Prompt: `Identify the organization that owns this privacy policy.
Respond with JSON: {"company": "<name>"}.

Policy opening:
` + policyPrefix,
		Input: map[string]string{"prefix": policyPrefix},
	}
}

// extractParamsHead is the extraction prompt up to the company's name.
const extractParamsHead = `Extract every data practice from the policy statement below.
For each practice produce JSON with sender, receiver, subject, data_type,
action, condition, permission. Normalize: base-form verbs, singular data
types, "user" for data subjects. Keep vague conditions verbatim; preserve
AND/OR. Expand enumerated lists into one object per data type. Respond with
a JSON array.

` + extractFewShots + `

Company: `

// ExtractParamsPrompt renders the semantic-role extraction prompt for one
// coreference-resolved segment.
func ExtractParamsPrompt(company, segment string) Request {
	return Request{
		Task:   TaskExtractParams,
		Prompt: extractParamsHead + company + "\nStatement: " + strconv.Quote(segment),
		Input:  map[string]string{"company": company, "segment": segment},
	}
}

// TaxonomyRootPrompt asks for the root concept of a term set.
func TaxonomyRootPrompt(kind string, terms []string) Request {
	return Request{
		Task: TaskTaxonomyRoot,
		Prompt: "These are " + kind + " terms from a privacy policy:\n" + strings.Join(terms, "; ") + `
Name the single root concept that subsumes all of them.
Respond with JSON: {"root": "<concept>"}.`,
		Input: map[string]string{"kind": kind, "terms": strings.Join(terms, "\x1f")},
	}
}

// TaxonomyLayerPrompt asks, per Chain-of-Layer, which of the remaining
// terms are immediate children of each frontier node.
func TaxonomyLayerPrompt(kind string, frontier, remaining []string) Request {
	return Request{
		Task: TaskTaxonomyLayer,
		Prompt: "Current taxonomy frontier (" + kind + "): " + strings.Join(frontier, "; ") +
			"\nRemaining terms: " + strings.Join(remaining, "; ") + `
For each frontier node, list which remaining terms are its immediate
subcategories. Every remaining term may appear under at most one node.
Respond with JSON: {"children": {"<node>": ["<term>", ...]}}.`,
		Input: map[string]string{
			"kind":      kind,
			"frontier":  strings.Join(frontier, "\x1f"),
			"remaining": strings.Join(remaining, "\x1f"),
		},
	}
}

// SemanticEquivPrompt asks whether two terms mean the same thing in a
// privacy context (the LLM verification step of Phase 3).
func SemanticEquivPrompt(a, b string) Request {
	return Request{
		Task: TaskSemanticEquiv,
		Prompt: "In the context of a privacy policy, do " + strconv.Quote(a) + " and " + strconv.Quote(b) + ` refer to the
same kind of information or party? Respond with JSON: {"equivalent": true|false}.`,
		Input: map[string]string{"a": a, "b": b},
	}
}
