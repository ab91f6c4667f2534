package embed

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

func TestIndexReAdd(t *testing.T) {
	m := NewModel("text-embedding-sim")
	ix := NewIndex(m, 0)
	ix.Add("k", "email")
	ix.Add("k", "phone")
	if ix.Len() != 1 {
		t.Fatalf("re-add duplicated key: %d", ix.Len())
	}
	got := ix.Search("phone", 1)
	if got[0].Score < 0.9 {
		t.Errorf("re-added vector not updated: %v", got[0])
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
		ix := NewIndex(m, 0)
		var all []Match
		query := words[r.Intn(len(words))] + " " + words[r.Intn(len(words))]
		for i, n := 0, r.Intn(30); i < n; i++ {
			key := fmt.Sprintf("k%02d", r.Intn(100))
			if _, dup := ix.byKey[key]; dup {
				continue
			}
			text := words[r.Intn(3)] + " " + words[r.Intn(len(words))]
			ix.Add(key, text)
			all = append(all, Match{Key: key, Score: Cosine(m.Embed(query), m.Embed(text))})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].Key < all[j].Key
		})
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

func BenchmarkEmbed(b *testing.B) {
	m := NewModel("text-embedding-sim")
	for i := 0; i < b.N; i++ {
		m.Embed("we may share your personal information with trusted service providers for legitimate business purposes")
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
