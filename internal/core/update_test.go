package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/llm"
)

// generatedPolicies returns the texts of the first n policies that
// corpus.WriteCorpus draws from seed.
func generatedPolicies(tb testing.TB, n int, seed int64) []string {
	tb.Helper()
	dir := tb.TempDir()
	names, err := corpus.WriteCorpus(dir, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	texts := make([]string, len(names))
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		texts[i] = string(data)
	}
	return texts
}

// isStatement reports whether a paragraph is a practice statement: not a
// heading, not the preamble.
func isStatement(para string) bool {
	para = strings.TrimSpace(para)
	return para != "" && !strings.HasPrefix(para, "#") && !strings.HasPrefix(para, "This Privacy Policy")
}

// statementSlots returns the indexes of paras that are statements.
func statementSlots(paras []string) []int {
	var slots []int
	for i, para := range paras {
		if isStatement(para) {
			slots = append(slots, i)
		}
	}
	return slots
}

// donorStatements returns the statement paragraphs of texts.
func donorStatements(texts []string) []string {
	var out []string
	for _, text := range texts {
		for _, para := range strings.Split(text, "\n\n") {
			if isStatement(para) {
				out = append(out, strings.TrimSpace(para))
			}
		}
	}
	return out
}

// swapStatements replaces one to three of a policy's statement paragraphs
// with donor statements from other policies, as the write-mix benchmark's
// editor does.
func swapStatements(r *rand.Rand, text string, donors []string) string {
	paras := strings.Split(text, "\n\n")
	slots := statementSlots(paras)
	for k := 1 + r.Intn(3); k > 0 && len(slots) > 0; k-- {
		paras[slots[r.Intn(len(slots))]] = donors[r.Intn(len(donors))]
	}
	return strings.Join(paras, "\n\n")
}

// roundTrip encodes an analysis and decodes the payload, as a version read
// back from the store is.
func roundTrip(tb testing.TB, a *Analysis) *Analysis {
	tb.Helper()
	decoded, err := DecodeAnalysisEnvelope(mustEncode(tb, a))
	if err != nil {
		tb.Fatal(err)
	}
	return decoded
}

func mustEncode(tb testing.TB, a *Analysis) []byte {
	tb.Helper()
	data, err := EncodeAnalysis(a)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// payloadDiff names the envelope sections in which two payloads differ.
func payloadDiff(got, want []byte) string {
	var g, w map[string]json.RawMessage
	_ = json.Unmarshal(got, &g)
	_ = json.Unmarshal(want, &w)
	var sections []string
	for name := range w {
		if !bytes.Equal(g[name], w[name]) {
			sections = append(sections, name)
		}
	}
	sort.Strings(sections)
	return strings.Join(sections, ", ")
}

// updateLikeAnalyze updates prev to text and reports, as an error on tb,
// whether the update encodes other than Analyze of text does. It returns
// the update and whether the two agreed.
func updateLikeAnalyze(tb testing.TB, p *Pipeline, prev *Analysis, text, name string) (*Analysis, bool) {
	tb.Helper()
	ctx := context.Background()
	updated, _, _, err := p.Update(ctx, prev, text)
	if err != nil {
		tb.Fatalf("%s: update: %v", name, err)
	}
	fresh, err := p.Analyze(ctx, text)
	if err != nil {
		tb.Fatalf("%s: analyze: %v", name, err)
	}
	got, want := mustEncode(tb, updated), mustEncode(tb, fresh)
	if !bytes.Equal(got, want) {
		tb.Errorf("%s: the update encodes differently from Analyze of its text, in %s", name, payloadDiff(got, want))
		return updated, false
	}
	return updated, true
}

// TestUpdateMatchesAnalyze: every version of an edit chain encodes exactly
// as Analyze of its text does: extraction, graph and both hierarchies. The
// chains run over Mini and 20 generated policies, ten write-mix edits
// each, and every third edit updates the previous version as decoded from
// its payload, as a PUT after a restart does. Grafting each edit's new
// terms into the previous hierarchies used to keep every term a chain ever
// named.
func TestUpdateMatchesAnalyze(t *testing.T) {
	p := newPipeline(t)
	texts := append([]string{corpus.Mini()}, generatedPolicies(t, 20, 30)...)
	donors := donorStatements(texts)
	r := rand.New(rand.NewSource(31))
	for i, text := range texts {
		prev, err := p.Analyze(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 10; step++ {
			if step%3 == 0 {
				prev = roundTrip(t, prev)
			}
			text = swapStatements(r, text, donors)
			var ok bool
			if prev, ok = updateLikeAnalyze(t, p, prev, text, fmt.Sprintf("policy %d edit %d", i, step)); !ok {
				break
			}
		}
	}
}

// TestSingleEditMatchesAnalyze: one write-mix edit of each of 300
// generated policies, applied to the live previous version and to the
// decoded one, encodes as Analyze of the edited text does.
func TestSingleEditMatchesAnalyze(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 40
	}
	p := newPipeline(t)
	texts := generatedPolicies(t, n, 7)
	donors := donorStatements(texts)
	r := rand.New(rand.NewSource(7))
	for i, text := range texts {
		prev, err := p.Analyze(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		edited := swapStatements(r, text, donors)
		updateLikeAnalyze(t, p, prev, edited, fmt.Sprintf("policy %d (live)", i))
		updateLikeAnalyze(t, p, roundTrip(t, prev), edited, fmt.Sprintf("policy %d (decoded)", i))
	}
}

// TestRepeatedStatementKeepsItsPractices: a statement that occurs twice
// keeps Analyze's practices through four edits, each updating the
// previous version as decoded from its payload. Decoding used to file both
// occurrences' practices under the statement's one ID, so every such
// update doubled them: 8, 10, 14, 22, 38 practices.
func TestRepeatedStatementKeepsItsPractices(t *testing.T) {
	p := newPipeline(t)
	text := corpus.Mini() + "\nWe share email addresses with advertising partners.\n"
	prev, err := p.Analyze(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	sentence := "We collect device identifiers automatically."
	for step, data := range []string{"sleep patterns", "browsing history", "voiceprints", "purchase records"} {
		next := "We collect device identifiers and " + data + " automatically."
		text = strings.Replace(text, sentence, next, 1)
		sentence = next
		updated, ok := updateLikeAnalyze(t, p, roundTrip(t, prev), text, fmt.Sprintf("edit %d", step+1))
		if !ok {
			t.Fatalf("edit %d: %d practices after the update", step+1, len(updated.Extraction.Practices))
		}
		prev = updated
	}
}

// failingExtraction fails the extraction of every statement that contains
// text while on is set, and passes every other request to inner.
type failingExtraction struct {
	inner llm.Client
	text  string
	on    atomic.Bool
}

func (f *failingExtraction) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if f.on.Load() && req.Task == llm.TaskExtractParams {
		for _, in := range req.Input {
			if strings.Contains(in, f.text) {
				return llm.Response{}, llm.ErrOverloaded
			}
		}
	}
	return f.inner.Complete(ctx, req)
}

// TestFailedStatementIsRetried: a statement whose extraction failed is
// left out of the version's statements, so the next update, with the
// model healthy again, extracts it and matches Analyze, from the live and
// from the decoded previous version alike. Only a live previous version
// used to retry it, and the retried practices reached the extraction but
// not the graph.
func TestFailedStatementIsRetried(t *testing.T) {
	ctx := context.Background()
	client := &failingExtraction{inner: llm.NewSim(), text: "usage data"}
	p, err := New(Options{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	client.on.Store(true)
	degraded, err := p.Analyze(ctx, corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	client.on.Store(false)
	if degraded.Extraction.SegmentErrors == nil {
		t.Fatal("no statement failed; the test shows nothing")
	}
	fresh, err := p.Analyze(ctx, corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := degraded.VersionStats().Segments, fresh.VersionStats().Segments-1; got != want {
		t.Errorf("the degraded version counts %d statements, want %d (the failed one left out)", got, want)
	}
	for name, prev := range map[string]*Analysis{"live": degraded, "decoded": roundTrip(t, degraded)} {
		_, diff, _, err := p.Update(ctx, prev, corpus.Mini())
		if err != nil {
			t.Fatal(err)
		}
		if len(diff.Added) != 1 || !strings.Contains(diff.Added[0].Text, client.text) {
			t.Errorf("%s: the update adds %+v, want the failed statement", name, diff.Added)
		}
		updateLikeAnalyze(t, p, prev, corpus.Mini(), name)
	}
}

// editStatement applies one statement edit to a policy text: kind%3
// replaces the at-th statement with donor arg, deletes it, or copies it
// after the arg-th statement. A policy left with no statement gets donor
// arg appended.
func editStatement(text string, kind byte, at, arg int, donors []string) string {
	paras := strings.Split(text, "\n\n")
	slots := statementSlots(paras)
	if len(slots) == 0 {
		return text + "\n\n" + donors[arg%len(donors)]
	}
	i := slots[at%len(slots)]
	switch kind % 3 {
	case 0:
		paras[i] = donors[arg%len(donors)]
	case 1:
		paras = slices.Delete(paras, i, i+1)
	default:
		paras = slices.Insert(paras, slots[arg%len(slots)]+1, paras[i])
	}
	return strings.Join(paras, "\n\n")
}

// FuzzUpdateMatchesAnalyze: over Mini and one generated policy, a chain
// of statement replacements, deletions and duplications the fuzzer picks
// encodes every version as Analyze of its text does. The first byte picks
// the policy; each later triple is one edit (its kind, and the statement
// and argument it names), and the kind's fourth bit says whether the edit
// updates the previous version as decoded from its payload.
func FuzzUpdateMatchesAnalyze(f *testing.F) {
	p := newPipeline(f)
	policies := []string{corpus.Mini(), corpus.Generate(corpus.Config{
		Company: "FuzzCo", Seed: 31, PracticeStatements: 12,
		BoilerplateEvery: 3, DataRichness: 20, EntityRichness: 20,
	})}
	donors := donorStatements(policies)
	f.Add([]byte{0, 0, 1, 3, 2, 0, 1, 9, 2, 2})
	f.Add([]byte{1, 2, 4, 7, 8, 1, 0, 1, 3, 5})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 8, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		text := policies[int(ops[0])%len(policies)]
		prev, err := p.Analyze(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; len(ops) >= 4 && step <= 8; step++ {
			kind, at, arg := ops[1], int(ops[2]), int(ops[3])
			ops = ops[3:]
			if kind&8 != 0 {
				prev = roundTrip(t, prev)
			}
			text = editStatement(text, kind, at, arg, donors)
			var ok bool
			if prev, ok = updateLikeAnalyze(t, p, prev, text, fmt.Sprintf("edit %d", step)); !ok {
				t.FailNow()
			}
		}
	})
}
