// Package embed provides the deterministic text-embedding substrate that
// stands in for OpenAI's text-embedding-3-large and SciBERT in the paper's
// pipeline. Vectors are built from hashed word and character-n-gram
// features and L2-normalized, so lexically and morphologically similar
// terms ("email address" / "email addresses" / "email") land close in
// cosine space — the property the pipeline actually depends on for
// vocabulary translation and taxonomy-edge filtering.
package embed

import (
	"math"
	"math/bits"
	"slices"
	"strings"

	"github.com/privacy-quagmire/quagmire/internal/nlp"
)

// Dim is the embedding dimensionality.
const Dim = 256

// Vector is an embedding vector of Dim float32 components.
type Vector [Dim]float32

// Model produces embeddings. Namespacing lets distinct "models" (the
// general text model and the SciBERT-style scientific model) produce
// different spaces deterministically.
type Model struct {
	// Name namespaces the hash features; different names give different
	// (but internally consistent) spaces.
	Name string
}

// NewModel returns a model with the given namespace name.
func NewModel(name string) *Model { return &Model{Name: name} }

// FNV-1a 64-bit parameters, as hash/fnv uses them.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString continues the FNV-1a state h over the bytes of s.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fnvByte continues the FNV-1a state h over one byte.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// addFeature adds to v a feature of weight w whose FNV-1a hash (model
// name, 0, tag, 0, text) is h, and marks its component in touched. The
// hash modulo Dim picks the component, and a deterministic sign from its
// high bit keeps features roughly centered.
func addFeature(v *Vector, touched *[Dim / 64]uint64, h uint64, w float32) {
	sign := float32(1)
	if h&(1<<63) != 0 {
		sign = -1
	}
	d := h % Dim
	v[d] += sign * w
	touched[d/64] |= 1 << (d % 64)
}

// Embed returns the L2-normalized embedding of text. The zero vector is
// returned only for texts with no extractable features.
func (m *Model) Embed(text string) Vector {
	var v Vector
	var dims [Dim]uint16
	m.embed(text, &v, &dims)
	return v
}

// embed writes the L2-normalized embedding of text into v, which must be
// zero, and returns the components its features touched, in ascending
// order, as a prefix of dims. Every other component of v is zero; a
// touched one is zero only where its features cancel.
//
// Each feature is hashed by continuing its tag's prefix state over the
// feature's bytes, so no feature re-hashes the model name or allocates.
// The words and stems sit in arrays on the stack up to maxWords of them,
// and the trigrams are hashed across the stems without joining them, so
// embedding a phrase allocates nothing unless its lowercasing or
// singularizing builds a new string. The norm and the scaling visit only
// the touched components, in the ascending order a walk over all of v
// would: the components they skip add exact zeros to the norm and stay
// zero when scaled.
func (m *Model) embed(text string, v *Vector, dims *[Dim]uint16) []uint16 {
	name := fnvByte(fnvString(fnvOffset, m.Name), 0)
	prefix := func(tag string) uint64 { return fnvByte(fnvString(name, tag), 0) }
	hw, hstem, hcw, hcstem, hb, hc3 := prefix("w"), prefix("stem"), prefix("cw"), prefix("cstem"), prefix("b"), prefix("c3")

	var touched [Dim / 64]uint64
	var wordBuf, stemBuf [maxWords]string
	words, stems := wordBuf[:0], stemBuf[:0]
	for w, i, ok := nlp.NextWord(text, 0); ok; w, i, ok = nlp.NextWord(text, i) {
		words, stems = append(words, w), append(stems, stem(w))
	}
	// Stemmed features dominate so that morphological variants ("email
	// addresses" vs "email address") land nearly on top of each other;
	// raw surface forms contribute a small residual.
	for i, w := range words {
		addFeature(v, &touched, fnvString(hw, w), 0.5)
		addFeature(v, &touched, fnvString(hstem, stems[i]), 3)
	}
	// Content words are the non-stopwords, in order.
	for i, w := range words {
		if nlp.IsStopword(w) {
			continue
		}
		addFeature(v, &touched, fnvString(hcw, w), 0.5)
		addFeature(v, &touched, fnvString(hcstem, stems[i]), 4)
	}
	// Stemmed bigrams capture phrase structure.
	for i := 0; i+1 < len(stems); i++ {
		addFeature(v, &touched, fnvString(fnvByte(fnvString(hb, stems[i]), ' '), stems[i+1]), 2.5)
	}
	// Character trigrams over the stemmed text (the stems joined by
	// spaces) catch morphology and typos. push slides a window of the last
	// three bytes along the joined text without building it.
	var win [3]byte
	seen := 0
	push := func(c byte) {
		win[0], win[1], win[2] = win[1], win[2], c
		if seen++; seen >= 3 {
			addFeature(v, &touched, fnvByte(fnvByte(fnvByte(hc3, win[0]), win[1]), win[2]), 0.4)
		}
	}
	for i, s := range stems {
		if i > 0 {
			push(' ')
		}
		for j := 0; j < len(s); j++ {
			push(s[j])
		}
	}
	n := 0
	for i, word := range touched {
		for ; word != 0; word &= word - 1 {
			dims[n] = uint16(i*64 + bits.TrailingZeros64(word))
			n++
		}
	}
	list := dims[:n]
	norm := float32(0)
	for _, d := range list {
		norm += v[d] * v[d]
	}
	if norm == 0 {
		return list
	}
	inv := float32(1 / math.Sqrt(float64(norm)))
	for _, d := range list {
		v[d] *= inv
	}
	return list
}

// maxWords is how many words embed keeps on its stack; a longer text's
// words spill to the heap.
const maxWords = 32

// stem crudely strips plural/inflection suffixes so "addresses" and
// "address" share features.
func stem(w string) string {
	w = nlp.Singular(w)
	for _, suf := range []string{"ing", "ed"} {
		if strings.HasSuffix(w, suf) && len(w) > len(suf)+2 {
			return w[:len(w)-len(suf)]
		}
	}
	return w
}

// Cosine returns the cosine similarity of two vectors in [-1, 1]; for
// normalized vectors this is their dot product.
func Cosine(a, b Vector) float64 { return dot(&a, &b) }

// dot is Cosine over pointers.
func dot(a, b *Vector) float64 {
	var sum float64
	for i := range a {
		sum += float64(a[i]) * float64(b[i])
	}
	return sum
}

// Similarity is a convenience: cosine similarity of the embeddings of two
// texts under the model.
func (m *Model) Similarity(a, b string) float64 {
	return Cosine(m.Embed(a), m.Embed(b))
}

// Match is a scored search hit.
type Match struct {
	// Key is the indexed item's identifier.
	Key string
	// Score is the cosine similarity to the query.
	Score float64
}

// Index is an exact top-k nearest-neighbour index over embedded items. It
// stores postings per component rather than vectors: for each component
// d, the items whose vector is nonzero at d, in ascending order, with
// their values. An item's vector has tens of nonzero components of Dim,
// and each costs 8 bytes where a dense vector costs 4 per component.
//
// Search only reads an index, so searches may run concurrently. Add
// rewrites the postings and must not run concurrently with any other
// method; BuildIndex returns an index that nothing else changes.
type Index struct {
	model *Model
	keys  []string
	// item[start[d]:start[d+1]] are the items nonzero at component d, in
	// ascending order, and val[start[d]:start[d+1]] their components.
	start [Dim + 1]uint32
	item  []uint32
	val   []float32
}

// NewIndex returns an empty index over the model's space with room for n
// keys, for Add.
func NewIndex(m *Model, n int) *Index {
	return &Index{model: m, keys: make([]string, 0, n)}
}

// scratchPerItem is the number of nonzero components per item BuildIndex
// makes room for before it embeds. A vocabulary item has about 24 (a node
// or a data term) or 46 (an edge), and the vocabularies of generated
// policies average 33 to 39, so a policy-sized build never grows its
// scratch.
const scratchPerItem = 48

// BuildIndex returns the index of texts[i] under keys[i], for every i. A
// key given twice keeps its first position and takes its last text, as
// adding the pairs one by one would.
func BuildIndex(m *Model, keys, texts []string) *Index {
	if len(keys) != len(texts) {
		panic("embed: BuildIndex: keys and texts differ in length")
	}
	// The text each distinct key ends with, in first-position order.
	last := make([]int, 0, len(keys))
	pos := make(map[string]int, len(keys))
	for i, key := range keys {
		if p, ok := pos[key]; ok {
			last[p] = i
			continue
		}
		pos[key] = len(last)
		last = append(last, i)
	}
	ix := &Index{model: m, keys: make([]string, len(last))}
	// Every item's nonzero components, item by item, then counted and
	// placed into postings: each component's items come out ascending.
	dims := make([]uint16, 0, scratchPerItem*len(last))
	vals := make([]float32, 0, cap(dims))
	ends := make([]int, len(last))
	var buf [Dim]uint16
	for i, t := range last {
		ix.keys[i] = keys[t]
		var v Vector
		for _, d := range m.embed(texts[t], &v, &buf) {
			if v[d] != 0 {
				dims = append(dims, d)
				vals = append(vals, v[d])
				ix.start[d+1]++
			}
		}
		ends[i] = len(dims)
	}
	for d := 0; d < Dim; d++ {
		ix.start[d+1] += ix.start[d]
	}
	ix.item = make([]uint32, len(dims))
	ix.val = make([]float32, len(dims))
	next := ix.start
	j := 0
	for i, end := range ends {
		for ; j < end; j++ {
			p := next[dims[j]]
			next[dims[j]]++
			ix.item[p], ix.val[p] = uint32(i), vals[j]
		}
	}
	return ix
}

// Add embeds text and indexes it under key: a new key goes last, and a
// key already indexed keeps its position and takes the new text's vector.
// Each Add rewrites every posting. It is the one-key-at-a-time builder
// that the reference tests check BuildIndex and Search against; no
// serving code calls it, since both callers know every item up front and
// build with BuildIndex.
func (ix *Index) Add(key, text string) {
	pos := slices.Index(ix.keys, key)
	if pos < 0 {
		pos = len(ix.keys)
		ix.keys = append(ix.keys, key)
	}
	v, at := ix.model.Embed(text), uint32(pos)
	var start [Dim + 1]uint32
	item := make([]uint32, 0, len(ix.item)+Dim)
	val := make([]float32, 0, cap(item))
	for d := 0; d < Dim; d++ {
		start[d] = uint32(len(item))
		x := v[d] // placed once, before the first item past pos
		for p := ix.start[d]; p < ix.start[d+1]; p++ {
			if x != 0 && ix.item[p] > at {
				item, val = append(item, at), append(val, x)
				x = 0
			}
			if ix.item[p] != at {
				item, val = append(item, ix.item[p]), append(val, ix.val[p])
			}
		}
		if x != 0 {
			item, val = append(item, at), append(val, x)
		}
	}
	start[Dim] = uint32(len(item))
	ix.start, ix.item, ix.val = start, item, val
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return len(ix.keys) }

// Item returns the key and vector of the i-th indexed item, in the order
// keys were first added. It rebuilds the vector from the postings.
func (ix *Index) Item(i int) (string, Vector) {
	var v Vector
	for d := range v {
		lo := int(ix.start[d])
		if j, ok := slices.BinarySearch(ix.item[lo:ix.start[d+1]], uint32(i)); ok {
			v[d] = ix.val[lo+j]
		}
	}
	return ix.keys[i], v
}

// scoreBuf is the size of the score array Search keeps on its stack.
const scoreBuf = 256

// Search returns the top-k most similar indexed items to the query text,
// sorted by descending score (ties broken by key for determinism). It keeps
// a k-entry buffer in that order rather than sorting every match.
//
// Each item's score sums the products of the query's nonzero components
// with the item's, walking the query's components in ascending order and
// each one's postings. An item adds the same products in the same order
// as the dense dot product, less the ones with a zero factor; those are
// exact zeros, which change no float64 sum, and the product of two nonzero
// float32s in float64 is exact and nonzero. So every score equals Cosine
// of the two vectors exactly, and the ranking is Cosine's. Items sharing
// no component with the query score +0 and still rank.
func (ix *Index) Search(query string, k int) []Match {
	n := len(ix.keys)
	if k <= 0 || n == 0 {
		return nil
	}
	k = min(k, n)
	var buf [scoreBuf]float64
	scores := buf[:0]
	if n <= len(buf) {
		scores = buf[:n]
	} else {
		scores = make([]float64, n)
	}
	var qv Vector
	var dims [Dim]uint16
	for _, d := range ix.model.embed(query, &qv, &dims) {
		q := float64(qv[d])
		if q == 0 {
			continue
		}
		lo, hi := ix.start[d], ix.start[d+1]
		vals := ix.val[lo:hi]
		for j, it := range ix.item[lo:hi] {
			scores[it] += q * float64(vals[j])
		}
	}
	top := make([]Match, 0, k)
	for i, key := range ix.keys {
		m := Match{Key: key, Score: scores[i]}
		if len(top) == k && !ranksBefore(m, top[k-1]) {
			continue
		}
		if len(top) < k {
			top = append(top, Match{})
		}
		pos := len(top) - 1
		for ; pos > 0 && ranksBefore(m, top[pos-1]); pos-- {
			top[pos] = top[pos-1]
		}
		top[pos] = m
	}
	return top
}

// ranksBefore is Search's order: higher score first, then lower key.
func ranksBefore(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Key < b.Key
}
