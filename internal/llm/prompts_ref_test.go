package llm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The fmt-based prompt builders the concatenating ones replaced: prompt
// bytes are cache keys, so every builder must render the reference's
// bytes.
func referenceCompanyNamePrompt(policyPrefix string) Request {
	if len(policyPrefix) > 1000 {
		policyPrefix = policyPrefix[:1000]
	}
	return Request{
		Task: TaskCompanyName,
		Prompt: fmt.Sprintf(`Identify the organization that owns this privacy policy.
Respond with JSON: {"company": "<name>"}.

Policy opening:
%s`, policyPrefix),
		Input: map[string]string{"prefix": policyPrefix},
	}
}

func referenceExtractParamsPrompt(company, segment string) Request {
	return Request{
		Task: TaskExtractParams,
		Prompt: fmt.Sprintf(`Extract every data practice from the policy statement below.
For each practice produce JSON with sender, receiver, subject, data_type,
action, condition, permission. Normalize: base-form verbs, singular data
types, "user" for data subjects. Keep vague conditions verbatim; preserve
AND/OR. Expand enumerated lists into one object per data type. Respond with
a JSON array.

%s

Company: %s
Statement: %q`, extractFewShots, company, segment),
		Input: map[string]string{"company": company, "segment": segment},
	}
}

func referenceTaxonomyRootPrompt(kind string, terms []string) Request {
	return Request{
		Task: TaskTaxonomyRoot,
		Prompt: fmt.Sprintf(`These are %s terms from a privacy policy:
%s
Name the single root concept that subsumes all of them.
Respond with JSON: {"root": "<concept>"}.`, kind, strings.Join(terms, "; ")),
		Input: map[string]string{"kind": kind, "terms": strings.Join(terms, "\x1f")},
	}
}

func referenceTaxonomyLayerPrompt(kind string, frontier, remaining []string) Request {
	return Request{
		Task: TaskTaxonomyLayer,
		Prompt: fmt.Sprintf(`Current taxonomy frontier (%s): %s
Remaining terms: %s
For each frontier node, list which remaining terms are its immediate
subcategories. Every remaining term may appear under at most one node.
Respond with JSON: {"children": {"<node>": ["<term>", ...]}}.`,
			kind, strings.Join(frontier, "; "), strings.Join(remaining, "; ")),
		Input: map[string]string{
			"kind":      kind,
			"frontier":  strings.Join(frontier, "\x1f"),
			"remaining": strings.Join(remaining, "\x1f"),
		},
	}
}

func referenceSemanticEquivPrompt(a, b string) Request {
	return Request{
		Task: TaskSemanticEquiv,
		Prompt: fmt.Sprintf(`In the context of a privacy policy, do %q and %q refer to the
same kind of information or party? Respond with JSON: {"equivalent": true|false}.`, a, b),
		Input: map[string]string{"a": a, "b": b},
	}
}

// referenceCacheKey is the cache key as it was computed before the
// digest: the prompt copied to a byte slice, hashed and hex-encoded.
func referenceCacheKey(req Request) string {
	h := sha256.New()
	h.Write([]byte(req.Task))
	h.Write([]byte{0})
	h.Write([]byte(req.Prompt))
	return hex.EncodeToString(h.Sum(nil))
}

// hexDigest is the cache's digest of req in hex, the reference key's form.
func hexDigest(req Request) string {
	d := digest(req)
	return hex.EncodeToString(d[:])
}

// randomPromptText draws a company, segment or term: words, quotes,
// backslashes, newlines, tabs, control bytes, non-ASCII letters, an emoji,
// invalid UTF-8, and now and then more than 1000 bytes.
func randomPromptText(r *rand.Rand) string {
	pieces := []string{"Acme", "We share", "your email address", `"`, `\`, "\n", "\t", "\x00", "\x7f", "é", "ß", "日本", "😀", "\xff", "\xe2\x82", "%q", "%s", " ", "it's", "`"}
	var b strings.Builder
	n := r.Intn(12)
	if r.Intn(20) == 0 {
		n = 400
	}
	for i := 0; i < n; i++ {
		b.WriteString(pieces[r.Intn(len(pieces))])
	}
	return b.String()
}

// TestPromptsMatchReference: on 5,000 random companies, segments, kinds
// and term lists, every prompt builder returns the request the fmt
// reference returns, and its hex digest is the reference cache key.
func TestPromptsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	terms := func() []string {
		var ts []string
		for i, n := 0, r.Intn(4); i < n; i++ {
			ts = append(ts, randomPromptText(r))
		}
		return ts
	}
	for i := 0; i < 5000; i++ {
		a, b, kind := randomPromptText(r), randomPromptText(r), randomPromptText(r)
		ts, rest := terms(), terms()
		pairs := []struct {
			name      string
			got, want Request
		}{
			{"CompanyName", CompanyNamePrompt(a), referenceCompanyNamePrompt(a)},
			{"ExtractParams", ExtractParamsPrompt(a, b), referenceExtractParamsPrompt(a, b)},
			{"TaxonomyRoot", TaxonomyRootPrompt(kind, ts), referenceTaxonomyRootPrompt(kind, ts)},
			{"TaxonomyLayer", TaxonomyLayerPrompt(kind, ts, rest), referenceTaxonomyLayerPrompt(kind, ts, rest)},
			{"SemanticEquiv", SemanticEquivPrompt(a, b), referenceSemanticEquivPrompt(a, b)},
		}
		for _, p := range pairs {
			if !reflect.DeepEqual(p.got, p.want) {
				t.Fatalf("%s(%q, %q): prompt\n%q\nwant\n%q", p.name, a, b, p.got.Prompt, p.want.Prompt)
			}
			if got, want := hexDigest(p.got), referenceCacheKey(p.want); got != want {
				t.Fatalf("%s: cache key %s, reference %s", p.name, got, want)
			}
		}
	}
}

// TestCacheKeyMatchesReference: for random tasks and prompts of every
// length around the hashing buffer's size, the hex digest is the old key.
func TestCacheKeyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for i := 0; i < 3000; i++ {
		prompt := make([]byte, r.Intn(2100))
		r.Read(prompt)
		task := Task(randomPromptText(r))
		if r.Intn(2) == 0 {
			task = TaskSemanticEquiv
		}
		req := Request{Task: task, Prompt: string(prompt)}
		if got, want := hexDigest(req), referenceCacheKey(req); got != want {
			t.Fatalf("request %d (task %q, %d-byte prompt): key %s, reference %s", i, task, len(prompt), got, want)
		}
	}
}

// TestCachingClientHashesWithoutCopying: a cache hit on a multi-kilobyte
// prompt allocates nothing for its key.
func TestCachingClientHashesWithoutCopying(t *testing.T) {
	ctx := context.Background()
	c := NewCachingClient(NewSim())
	req := ExtractParamsPrompt("Acme", "Acme shares your email address with advertising partners.")
	if _, err := c.Complete(ctx, req); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { c.Complete(ctx, req) }); n != 0 {
		t.Errorf("a cache hit allocated %v times, want 0", n)
	}
}
