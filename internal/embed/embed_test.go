package embed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmbedDeterministic(t *testing.T) {
	m := NewModel("text-embedding-sim")
	a := m.Embed("email address")
	b := m.Embed("email address")
	if a != b {
		t.Error("embedding not deterministic")
	}
}

func TestEmbedNormalized(t *testing.T) {
	m := NewModel("text-embedding-sim")
	v := m.Embed("we share data with service providers")
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Errorf("norm = %v", norm)
	}
}

func TestEmbedEmptyZero(t *testing.T) {
	m := NewModel("text-embedding-sim")
	v := m.Embed("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty text should embed to zero vector")
		}
	}
}

func TestSimilarityOrdering(t *testing.T) {
	m := NewModel("text-embedding-sim")
	// The paper's §4.2 claim: near-identical terms score near 1; related
	// terms beat unrelated terms.
	same := m.Similarity("email address", "email addresses")
	related := m.Similarity("email address", "email")
	unrelated := m.Similarity("email address", "gps location")
	if same < 0.9 {
		t.Errorf("near-identical similarity = %v, want >= 0.9", same)
	}
	if related <= unrelated {
		t.Errorf("related (%v) should beat unrelated (%v)", related, unrelated)
	}
	if s := m.Similarity("email address", "email address"); math.Abs(s-1) > 1e-5 {
		t.Errorf("self similarity = %v", s)
	}
}

func TestSimilarityParaphrase(t *testing.T) {
	m := NewModel("text-embedding-sim")
	a := m.Similarity("location data", "location information")
	b := m.Similarity("location data", "credit card number")
	if a <= b {
		t.Errorf("location data ~ location information (%v) should beat credit card (%v)", a, b)
	}
}

func TestModelNamespacesDiffer(t *testing.T) {
	a := NewModel("text-embedding-sim").Embed("biometric data")
	b := NewModel("scibert-sim").Embed("biometric data")
	if a == b {
		t.Error("different model namespaces produced identical vectors")
	}
}

func TestIndexSearch(t *testing.T) {
	m := NewModel("text-embedding-sim")
	ix := NewIndex(m, 0)
	terms := []string{"email", "phone number", "gps location", "profile image", "credit card"}
	for _, term := range terms {
		ix.Add(term, term)
	}
	if ix.Len() != len(terms) {
		t.Fatalf("Len = %d", ix.Len())
	}
	got := ix.Search("email address", 2)
	if len(got) != 2 {
		t.Fatalf("Search returned %d", len(got))
	}
	if got[0].Key != "email" {
		t.Errorf("top match = %q (score %v), want email", got[0].Key, got[0].Score)
	}
}

// TestIndexReAdd: a key given twice, to Add or to BuildIndex, is indexed
// once, under its last text.
func TestIndexReAdd(t *testing.T) {
	m := NewModel("text-embedding-sim")
	added := NewIndex(m, 0)
	added.Add("k", "email")
	added.Add("k", "phone")
	built := BuildIndex(m, []string{"k", "k"}, []string{"email", "phone"})
	for name, ix := range map[string]*Index{"Add": added, "BuildIndex": built} {
		if ix.Len() != 1 {
			t.Fatalf("%s: re-add duplicated key: %d", name, ix.Len())
		}
		got := ix.Search("phone", 1)
		if got[0].Score < 0.9 {
			t.Errorf("%s: re-added vector not updated: %v", name, got[0])
		}
	}
}

// TestBuildIndexMatchesAdd: on random keys and texts, repeated keys among
// them, BuildIndex holds the keys in the order Add gives them, and every
// item's vector is bit-identical to the embedding of its key's last text.
func TestBuildIndexMatchesAdd(t *testing.T) {
	m := NewModel("text-embedding-sim")
	words := []string{"email", "address", "location", "advertising", "partner", "device", "id", "", "!!"}
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 200; iter++ {
		var keys, texts []string
		lastText := map[string]string{}
		added := NewIndex(m, 0)
		for i, n := 0, r.Intn(40); i < n; i++ {
			key := fmt.Sprintf("k%02d", r.Intn(30))
			text := words[r.Intn(len(words))] + " " + words[r.Intn(len(words))]
			keys, texts = append(keys, key), append(texts, text)
			lastText[key] = text
			added.Add(key, text)
		}
		built := BuildIndex(m, keys, texts)
		if built.Len() != added.Len() || built.Len() != len(lastText) {
			t.Fatalf("iter %d: BuildIndex holds %d items, Add %d, want %d", iter, built.Len(), added.Len(), len(lastText))
		}
		for i := 0; i < built.Len(); i++ {
			bk, bv := built.Item(i)
			ak, av := added.Item(i)
			if bk != ak {
				t.Fatalf("iter %d item %d: BuildIndex key %q, Add key %q", iter, i, bk, ak)
			}
			want := m.Embed(lastText[bk])
			for d := range want {
				if math.Float32bits(bv[d]) != math.Float32bits(want[d]) || math.Float32bits(av[d]) != math.Float32bits(want[d]) {
					t.Fatalf("iter %d key %q component %d: BuildIndex %v, Add %v, want %v", iter, bk, d, bv[d], av[d], want[d])
				}
			}
		}
	}
}

// TestConcurrentSearch runs Search from many goroutines on one built index
// (run under -race): the index is read-only once built, and every result
// equals the one a single caller gets.
func TestConcurrentSearch(t *testing.T) {
	m := NewModel("text-embedding-sim")
	terms := []string{"email address", "phone number", "gps location", "profile image", "credit card", "device identifier", "advertising partner"}
	// One index scores on Search's stack, the other on the heap.
	for _, size := range []int{scoreBuf / 2, 2 * scoreBuf} {
		var keys, texts []string
		for i := 0; i < size; i++ {
			keys = append(keys, fmt.Sprintf("k%03d", i))
			texts = append(texts, terms[i%len(terms)]+" "+terms[(i/len(terms))%len(terms)])
		}
		ix := BuildIndex(m, keys, texts)
		want := make([][]Match, len(terms))
		for i, q := range terms {
			want[i] = ix.Search(q, 10)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					q := (g + i) % len(terms)
					if got := ix.Search(terms[q], 10); !slices.Equal(got, want[q]) {
						t.Errorf("%d items, goroutine %d: Search(%q) = %v, want %v", size, g, terms[q], got, want[q])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

func TestIndexEdgeCases(t *testing.T) {
	ix := NewIndex(NewModel("m"), 0)
	if got := ix.Search("x", 3); got != nil {
		t.Errorf("empty index search = %v", got)
	}
	ix.Add("a", "alpha")
	if got := ix.Search("alpha", 0); got != nil {
		t.Errorf("k=0 search = %v", got)
	}
	if got := ix.Search("alpha", 10); len(got) != 1 {
		t.Errorf("k>len search = %v", got)
	}
}

func TestSearchDeterministicTies(t *testing.T) {
	m := NewModel("text-embedding-sim")
	ix := NewIndex(m, 0)
	ix.Add("b", "zzz")
	ix.Add("a", "zzz")
	got := ix.Search("zzz", 2)
	if got[0].Key != "a" || got[1].Key != "b" {
		t.Errorf("tie break not by key: %v", got)
	}
}

// TestSearchMatchesFullSort checks the top-k buffer against a full sort of
// every match on random indexes whose texts repeat, so scores tie and the
// key order decides, for every k from 0 to N+1.
func TestSearchMatchesFullSort(t *testing.T) {
	m := NewModel("text-embedding-sim")
	words := []string{"email", "address", "location", "advertising", "partner", "device", "id"}
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		var keys, texts []string
		var all []Match
		query := words[r.Intn(len(words))] + " " + words[r.Intn(len(words))]
		for i, n := 0, r.Intn(30); i < n; i++ {
			key := fmt.Sprintf("k%02d", r.Intn(100))
			if slices.Contains(keys, key) {
				continue
			}
			text := words[r.Intn(3)] + " " + words[r.Intn(len(words))]
			keys, texts = append(keys, key), append(texts, text)
			all = append(all, Match{Key: key, Score: Cosine(m.Embed(query), m.Embed(text))})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].Key < all[j].Key
		})
		ix := BuildIndex(m, keys, texts)
		for k := 0; k <= len(all)+1; k++ {
			want := all[:min(k, len(all))]
			got := ix.Search(query, k)
			if len(got) != len(want) {
				t.Fatalf("iter %d k=%d: %d matches, want %d", iter, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("iter %d k=%d: match %d = %v, want %v", iter, k, i, got[i], want[i])
				}
			}
		}
	}
}

// Property: cosine similarity is symmetric and bounded.
func TestCosineProperties(t *testing.T) {
	m := NewModel("text-embedding-sim")
	f := func(a, b string) bool {
		s1 := m.Similarity(a, b)
		s2 := m.Similarity(b, a)
		return math.Abs(s1-s2) < 1e-9 && s1 <= 1.0001 && s1 >= -1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// embedSentence is a 14-word policy sentence.
const embedSentence = "we may share your personal information with trusted service providers for legitimate business purposes"

func BenchmarkEmbed(b *testing.B) {
	m := NewModel("text-embedding-sim")
	for i := 0; i < b.N; i++ {
		m.Embed(embedSentence)
	}
}

// TestEmbedAllocatesNothing: embedding a policy sentence allocates
// nothing; its words and stems stay on the stack.
func TestEmbedAllocatesNothing(t *testing.T) {
	m := NewModel("text-embedding-sim")
	if n := testing.AllocsPerRun(100, func() { m.Embed(embedSentence) }); n != 0 {
		t.Errorf("Embed allocates %v times per call", n)
	}
}

func BenchmarkSearch1000(b *testing.B) {
	m := NewModel("text-embedding-sim")
	ix := NewIndex(m, 0)
	for i := 0; i < 1000; i++ {
		ix.Add(string(rune('a'+i%26))+string(rune('0'+i%10)), "term "+string(rune('a'+i%26)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search("term q", 10)
	}
}

// BenchmarkSearchPolicySized searches an index the size of a generated
// policy's vocabulary: 140 items of one to four policy words.
func BenchmarkSearchPolicySized(b *testing.B) {
	m := NewModel("text-embedding-sim")
	words := []string{"email", "address", "location", "advertising", "partner", "device", "identifier", "share",
		"collect", "acme", "user", "personal", "information", "service", "provider", "purchase", "history"}
	r := rand.New(rand.NewSource(1))
	ix := NewIndex(m, 140)
	for i := 0; i < 140; i++ {
		text := words[r.Intn(len(words))]
		for j, n := 0, r.Intn(4); j < n; j++ {
			text += " " + words[r.Intn(len(words))]
		}
		ix.Add(fmt.Sprintf("node:%d", i), text)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchSink = ix.Search("email addresses", 10)
	}
}

// searchSink keeps the benchmarked searches from being optimized away.
var searchSink []Match
