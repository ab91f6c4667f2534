package embed_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// modelNames are the two embedding spaces the pipeline uses: translation
// and taxonomy filtering.
var modelNames = []string{"text-embedding-sim", "scibert-sim"}

// referenceEmbed is the plain formulation of Model.Embed, kept as the
// reference Embed must match bit for bit: a fresh FNV-1a hasher per
// feature over model name, tag and text, content words from a second
// tokenization (nlp.ContentWords) stemmed again, and bigrams hashed as
// concatenated strings.
func referenceEmbed(m *embed.Model, text string) embed.Vector {
	var v embed.Vector
	add := func(tag, s string, w float32) {
		h := fnv.New64a()
		h.Write([]byte(m.Name))
		h.Write([]byte{0})
		h.Write([]byte(tag))
		h.Write([]byte{0})
		h.Write([]byte(s))
		x := h.Sum64()
		sign := float32(1)
		if x&(1<<63) != 0 {
			sign = -1
		}
		v[int(x%embed.Dim)] += sign * w
	}
	words := nlp.Words(text)
	content := nlp.ContentWords(text)
	stems := make([]string, len(words))
	for i, w := range words {
		stems[i] = referenceStem(w)
	}
	for i, w := range words {
		add("w", w, 0.5)
		add("stem", stems[i], 3)
	}
	for _, w := range content {
		add("cw", w, 0.5)
		add("cstem", referenceStem(w), 4)
	}
	for i := 0; i+1 < len(stems); i++ {
		add("b", stems[i]+" "+stems[i+1], 2.5)
	}
	joined := strings.Join(stems, " ")
	for i := 0; i+3 <= len(joined); i++ {
		add("c3", joined[i:i+3], 0.4)
	}
	norm := float32(0)
	for _, x := range v {
		norm += x * x
	}
	if norm == 0 {
		return v
	}
	inv := float32(1 / math.Sqrt(float64(norm)))
	for i := range v {
		v[i] *= inv
	}
	return v
}

// referenceStem is the embed package's stemmer.
func referenceStem(w string) string {
	w = nlp.Singular(w)
	for _, suf := range []string{"ing", "ed"} {
		if strings.HasSuffix(w, suf) && len(w) > len(suf)+2 {
			return w[:len(w)-len(suf)]
		}
	}
	return w
}

// embedDiff returns the first component at which Embed and the reference
// differ in bits, or -1 when the vectors are bit-identical.
func embedDiff(m *embed.Model, text string) (int, embed.Vector, embed.Vector) {
	got, want := m.Embed(text), referenceEmbed(m, text)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i, got, want
		}
	}
	return -1, got, want
}

func checkAgainstReference(t *testing.T, texts []string) {
	t.Helper()
	for _, name := range modelNames {
		m := embed.NewModel(name)
		for _, text := range texts {
			if i, got, want := embedDiff(m, text); i >= 0 {
				t.Fatalf("%s: Embed(%q)[%d] = %v, reference %v", name, text, i, got[i], want[i])
			}
		}
	}
}

// TestEmbedMatchesReferenceOnPolicies: every node, edge and data-term text
// the query engine indexes, over generated policies, embeds bit-identically
// to the reference in both model spaces.
func TestEmbedMatchesReferenceOnPolicies(t *testing.T) {
	dir := t.TempDir()
	names, err := corpus.WriteCorpus(dir, 40, 2317)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var texts []string
	addText := func(s string) {
		if !seen[s] {
			seen[s] = true
			texts = append(texts, s)
		}
	}
	for _, name := range append(names, "") {
		text := corpus.Mini()
		if name != "" {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			text = string(raw)
		}
		a, err := p.Analyze(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range a.KG.ED.Nodes() {
			addText(n.ID)
		}
		for _, ed := range a.KG.ED.Edges() {
			addText(ed.From + " " + ed.Label + " " + ed.To)
		}
		for _, term := range a.KG.DataH.Terms() {
			addText(term)
		}
		for _, term := range a.KG.EntityH.Terms() {
			addText(term)
		}
	}
	t.Logf("%d distinct texts from %d policies", len(texts), len(names)+1)
	if len(texts) < 1000 {
		t.Fatalf("only %d distinct texts", len(texts))
	}
	checkAgainstReference(t, texts)
}

// randomText draws a text of words, stopwords in mixed case, and runs of
// ASCII letters, digits, punctuation, the in-word joiners -'’ and
// non-ASCII letters whose case mappings change their byte length (the
// Kelvin sign, dotted capital I, sharp s, capital and final sigma).
func randomText(r *rand.Rand) string {
	vocab := []string{
		"email", "addresses", "sharing", "shared", "The", "WITH", "of", "and", "Your",
		"partners", "advertising", "user's", "voice-enabled", "policies", "we", "NOT",
	}
	alphabet := []rune("abcXYZ09 .,;:!?()\"-'’\tKİßΣςé")
	var b strings.Builder
	for i, n := 0, r.Intn(8); i < n; i++ {
		if i > 0 {
			b.WriteByte(" -'"[r.Intn(3)])
		}
		if r.Intn(2) == 0 {
			b.WriteString(vocab[r.Intn(len(vocab))])
			continue
		}
		for j, m := 0, 1+r.Intn(6); j < m; j++ {
			b.WriteRune(alphabet[r.Intn(len(alphabet))])
		}
	}
	return b.String()
}

// TestEmbedMatchesReferenceOnRandomStrings holds Embed bit-identical to the
// reference on 20,000 random texts in both model spaces.
func TestEmbedMatchesReferenceOnRandomStrings(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	texts := make([]string, 20000)
	for i := range texts {
		texts[i] = randomText(r)
	}
	checkAgainstReference(t, texts)
}

// FuzzEmbedMatchesReference: any text embeds bit-identically to the
// reference in both model spaces.
func FuzzEmbedMatchesReference(f *testing.F) {
	for _, s := range []string{"", "email address", "We do NOT sell the data of users", "KİßΣς’s data-sharing", "a-'b c’d\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, name := range modelNames {
			if i, got, want := embedDiff(embed.NewModel(name), text); i >= 0 {
				t.Fatalf("%s: Embed(%q)[%d] = %v, reference %v", name, text, i, got[i], want[i])
			}
		}
	})
}

// denseSearch is Search's reference: every indexed vector scored by the
// dense dot product (Cosine), fully sorted by descending score and then
// key, cut to k.
func denseSearch(ix *embed.Index, m *embed.Model, query string, k int) []embed.Match {
	if k <= 0 || ix.Len() == 0 {
		return nil
	}
	qv := m.Embed(query)
	all := make([]embed.Match, ix.Len())
	for i := range all {
		key, v := ix.Item(i)
		all[i] = embed.Match{Key: key, Score: embed.Cosine(qv, v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Key < all[j].Key
	})
	return all[:min(k, len(all))]
}

// searchDiff reports how Search differs from denseSearch, scores compared
// with ==, or "" when they agree.
func searchDiff(ix *embed.Index, m *embed.Model, query string, k int) string {
	got, want := ix.Search(query, k), denseSearch(ix, m, query, k)
	if len(got) != len(want) {
		return fmt.Sprintf("k=%d: %d matches, want %d", k, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("k=%d: match %d = %+v, want %+v", k, i, got[i], want[i])
		}
	}
	return ""
}

// randomIndex indexes up to 40 random texts under random keys, with
// repeated texts (tied scores) and texts with no features (zero vectors).
func randomIndex(r *rand.Rand, m *embed.Model) *embed.Index {
	ix := embed.NewIndex(m, 0)
	var texts []string
	for i, n := 0, r.Intn(40); i < n; i++ {
		var text string
		switch {
		case r.Intn(6) == 0:
			text = []string{"", "!!", " - "}[r.Intn(3)]
		case len(texts) > 0 && r.Intn(4) == 0:
			text = texts[r.Intn(len(texts))]
		default:
			text = randomText(r)
		}
		texts = append(texts, text)
		ix.Add(fmt.Sprintf("k%02d", r.Intn(60)), text)
	}
	return ix
}

// TestSearchMatchesDense holds the sparse scorer to the dense reference on
// random indexes, queries (zero vectors among them) and every k up to
// two past the index size, in both model spaces.
func TestSearchMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for iter := 0; iter < 300; iter++ {
		m := embed.NewModel(modelNames[iter%len(modelNames)])
		ix := randomIndex(r, m)
		query := randomText(r)
		if iter%10 == 0 {
			query = "?!"
		}
		for k := 0; k <= ix.Len()+2; k++ {
			if d := searchDiff(ix, m, query, k); d != "" {
				t.Fatalf("iter %d, query %q: %s", iter, query, d)
			}
		}
	}
}

// FuzzSearchMatchesDense: for any query and any index drawn from seed,
// Search ranks and scores exactly as the dense reference.
func FuzzSearchMatchesDense(f *testing.F) {
	f.Add(int64(1), "email address", 3)
	f.Add(int64(2), "", 10)
	f.Add(int64(3), "third-party analytics providers", 100)
	f.Add(int64(4), "KİßΣς’s data-sharing", 1)
	f.Fuzz(func(t *testing.T, seed int64, query string, k int) {
		r := rand.New(rand.NewSource(seed))
		for _, name := range modelNames {
			m := embed.NewModel(name)
			ix := randomIndex(r, m)
			if d := searchDiff(ix, m, query, k%64); d != "" {
				t.Fatalf("%s, query %q: %s", name, query, d)
			}
		}
	})
}

// TestBuildIndexScratchFitsPolicies: building the vocabulary index of
// each of 100 generated policies, as the query engine builds it, makes as
// many allocations as building the index of one-letter texts under the
// same keys, whose scratch cannot grow, plus those of embedding the texts
// (lowercasing a company name, singularizing an -ies plural): no
// policy-sized build grows its scratch.
func TestBuildIndexScratchFitsPolicies(t *testing.T) {
	dir := t.TempDir()
	names, err := corpus.WriteCorpus(dir, 100, 2317)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := embed.NewModel(modelNames[0])
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Analyze(context.Background(), string(raw))
		if err != nil {
			t.Fatal(err)
		}
		var keys, texts []string
		for _, n := range a.KG.ED.Nodes() {
			keys, texts = append(keys, "node:"+n.ID), append(texts, n.ID)
		}
		for i, ed := range a.KG.ED.Edges() {
			keys, texts = append(keys, fmt.Sprintf("edge:%d", i)), append(texts, ed.From+" "+ed.Label+" "+ed.To)
		}
		for _, term := range a.KG.DataH.Terms() {
			if !a.KG.ED.HasNode(term) {
				keys, texts = append(keys, "node:"+term), append(texts, term)
			}
		}
		letters := make([]string, len(texts))
		for i := range letters {
			letters[i] = "x"
		}
		got := testing.AllocsPerRun(2, func() { embed.BuildIndex(m, keys, texts) })
		want := testing.AllocsPerRun(2, func() { embed.BuildIndex(m, keys, letters) }) +
			testing.AllocsPerRun(2, func() {
				for _, text := range texts {
					m.Embed(text)
				}
			})
		if got != want {
			t.Fatalf("%s: BuildIndex of %d items makes %v allocations, %v without growing its scratch", name, len(keys), got, want)
		}
	}
}
