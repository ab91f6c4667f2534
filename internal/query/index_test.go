package query

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/obs"
)

// indexBuilds counts the engine's vocabulary index builds.
func indexBuilds(e *Engine) uint64 {
	return e.Obs.Histogram("quagmire_engine_index_seconds", obs.TimeBuckets).Count()
}

// answerDiff reports how two answers to one question differ in the fields
// a verdict is read from, or "" when they agree.
func answerDiff(got, want *Result) string {
	type view struct {
		Verdict       Verdict
		Translations  map[string]string
		MatchedEdges  []string
		Formula       string
		ConditionalOn []string
		Contradiction bool
	}
	g := view{got.Verdict, got.Translations, got.MatchedEdges, got.Formula, got.ConditionalOn, got.Contradiction}
	w := view{want.Verdict, want.Translations, want.MatchedEdges, want.Formula, want.ConditionalOn, want.Contradiction}
	if reflect.DeepEqual(g, w) {
		return ""
	}
	return fmt.Sprintf("got  %+v\nwant %+v", g, w)
}

// translatedQuestions each carry a term that names no node of the test
// policy's graph ("e-mail addresses", "partners", "gadget information",
// "advertisers"), so answering any of them searches the embedding index.
var translatedQuestions = []string{
	"Does TikTak share my e-mail addresses with advertisers?",
	"Does TikTak share my email address with partners?",
	"Does TikTak collect my gadget information?",
	"Does TikTak sell my personal information to advertisers?",
}

// TestIndexBuiltOnFirstQuestion: a fresh engine embeds nothing until a
// question needs vocabulary translation, then builds its index once.
func TestIndexBuiltOnFirstQuestion(t *testing.T) {
	eng := newEngine(t)
	eng.Obs = obs.NewRegistry()
	if n := indexBuilds(eng); n != 0 {
		t.Fatalf("fresh engine recorded %d index builds, want 0", n)
	}
	ctx := context.Background()
	for _, q := range translatedQuestions {
		if _, err := eng.Ask(ctx, q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if n := indexBuilds(eng); n != 1 {
			t.Fatalf("after %q: %d index builds, want 1", q, n)
		}
	}
	eng.Warm()
	if n := indexBuilds(eng); n != 1 {
		t.Errorf("Warm after questions rebuilt the index: %d builds, want 1", n)
	}
}

// TestIndexConcurrentFirstQuestions races 16 first questions on a fresh
// engine (run under -race): the index is built exactly once, and every
// answer equals the one a second engine gives to the same question asked
// sequentially.
func TestIndexConcurrentFirstQuestions(t *testing.T) {
	const askers = 16
	ctx := context.Background()
	ref := newEngine(t)
	want := map[string]*Result{}
	for _, q := range translatedQuestions {
		res, err := ref.Ask(ctx, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want[q] = res
	}

	eng := newEngine(t)
	eng.Obs = obs.NewRegistry()
	start := make(chan struct{})
	got := make([]*Result, askers)
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := eng.Ask(ctx, translatedQuestions[i%len(translatedQuestions)])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
		}(i)
	}
	close(start)
	wg.Wait()
	if n := indexBuilds(eng); n != 1 {
		t.Errorf("%d concurrent first questions built the index %d times, want 1", askers, n)
	}
	for i, res := range got {
		q := translatedQuestions[i%len(translatedQuestions)]
		if res == nil {
			continue // reported above
		}
		if d := answerDiff(res, want[q]); d != "" {
			t.Errorf("%q asked concurrently differs from sequential:\n%s", q, d)
		}
	}
}

// TestLazyIndexMatchesWarmed is the identity test for building the index
// on the first question: over generated policies and questions derived
// from their own edges, an engine that indexes lazily answers exactly
// like one warmed as soon as it was made.
func TestLazyIndexMatchesWarmed(t *testing.T) {
	const policies, perKind = 50, 3
	ctx := context.Background()
	engines := corpusEngines(t, policies, 29)
	asked := 0
	for i, lazy := range engines {
		warmed := NewEngine(lazy.KG, lazy.Client, lazy.Model)
		warmed.Warm()
		for _, q := range questionGrid(engines, i, perKind) {
			want, werr := warmed.Ask(ctx, q)
			got, gerr := lazy.Ask(ctx, q)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%q: lazy error %v, warmed error %v", q, gerr, werr)
			}
			if werr != nil {
				continue // the extractor found no flow, on both engines
			}
			asked++
			if d := answerDiff(got, want); d != "" {
				t.Errorf("%q: lazily indexed engine differs from warmed:\n%s", q, d)
			}
		}
	}
	t.Logf("%d questions over %d policies", asked, policies)
	if asked < 5*policies {
		t.Errorf("only %d questions asked", asked)
	}
}

// TestVocabIndexMatchesEveryAdd: the index an engine builds holds the keys,
// in the same order and with bit-identical vectors, of an index that adds
// every node, every edge and every data term in turn, re-adding each term
// that is also a node under the node's key.
func TestVocabIndexMatchesEveryAdd(t *testing.T) {
	engines := append(corpusEngines(t, 30, 31), newEngine(t))
	skipped := 0
	for i, e := range engines {
		ref := embed.NewIndex(e.Model, 0)
		for _, n := range e.KG.ED.Nodes() {
			ref.Add("node:"+n.ID, n.ID)
		}
		for j, ed := range e.KG.ED.Edges() {
			ref.Add(fmt.Sprintf("edge:%d", j), ed.From+" "+ed.Label+" "+ed.To)
		}
		terms := e.KG.DataH.Terms()
		for _, term := range terms {
			ref.Add("node:"+term, term)
		}
		got := e.vocabIndex()
		if got.Len() != ref.Len() {
			t.Fatalf("policy %d: index holds %d items, want %d", i, got.Len(), ref.Len())
		}
		for j := 0; j < ref.Len(); j++ {
			gk, gv := got.Item(j)
			wk, wv := ref.Item(j)
			if gk != wk {
				t.Fatalf("policy %d item %d: key %q, want %q", i, j, gk, wk)
			}
			for c := range gv {
				if math.Float32bits(gv[c]) != math.Float32bits(wv[c]) {
					t.Fatalf("policy %d key %q: component %d = %v, want %v", i, gk, c, gv[c], wv[c])
				}
			}
		}
		skipped += e.KG.ED.NumNodes() + e.KG.ED.NumEdges() + len(terms) - ref.Len()
	}
	if skipped == 0 {
		t.Error("no data term was also a node; the test covers no skipped key")
	}
}

// indexTexts returns the text each key of the engine's vocabulary index
// is embedded from: a node's ID, an edge's "from label to", a data term.
func indexTexts(e *Engine) map[string]string {
	texts := map[string]string{}
	for _, n := range e.KG.ED.Nodes() {
		texts["node:"+n.ID] = n.ID
	}
	for j, ed := range e.KG.ED.Edges() {
		texts[fmt.Sprintf("edge:%d", j)] = ed.From + " " + ed.Label + " " + ed.To
	}
	for _, term := range e.KG.DataH.Terms() {
		texts["node:"+term] = term
	}
	return texts
}

// TestVocabSearchMatchesDenseRanking: over generated policies, searching
// the engine's index for every node, term and edge text ranks and scores
// exactly as a dense reference that embeds each indexed text, scores it
// with Cosine and sorts every item by score, then key.
func TestVocabSearchMatchesDenseRanking(t *testing.T) {
	engines := append(corpusEngines(t, 12, 37), newEngine(t))
	searches := 0
	for i, e := range engines {
		ix, texts := e.vocabIndex(), indexTexts(e)
		keys := make([]string, ix.Len())
		vecs := make([]embed.Vector, ix.Len())
		for j := range keys {
			keys[j], _ = ix.Item(j)
			vecs[j] = e.Model.Embed(texts[keys[j]])
		}
		for _, q := range texts {
			qv := e.Model.Embed(q)
			want := make([]embed.Match, len(keys))
			for j, key := range keys {
				want[j] = embed.Match{Key: key, Score: embed.Cosine(qv, vecs[j])}
			}
			sort.Slice(want, func(a, b int) bool {
				if want[a].Score != want[b].Score {
					return want[a].Score > want[b].Score
				}
				return want[a].Key < want[b].Key
			})
			for _, k := range []int{topK, len(keys)} {
				got := ix.Search(q, k)
				if !slices.Equal(got, want[:min(k, len(want))]) {
					t.Fatalf("policy %d, query %q, k=%d:\ngot  %v\nwant %v", i, q, k, got, want[:min(k, len(want))])
				}
				searches++
			}
		}
	}
	t.Logf("%d searches over %d policies", searches, len(engines))
}

// TestIndexFootprint: the vocabulary indexes of generated policies hold at
// most 400 bytes of heap per indexed item, keys included. A dense vector
// alone is 1 KiB.
func TestIndexFootprint(t *testing.T) {
	const maxPerItem = 400
	engines := corpusEngines(t, 60, 13)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	items := 0
	for _, e := range engines {
		items += e.vocabIndex().Len()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(engines)
	perItem := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(items)
	t.Logf("%d items over %d policies: %.0f bytes of heap per item", items, len(engines), perItem)
	if perItem > maxPerItem {
		t.Errorf("the indexes hold %.0f bytes of heap per item, want at most %d", perItem, maxPerItem)
	}
}
