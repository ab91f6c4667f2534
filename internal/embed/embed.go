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
// name, 0, tag, 0, text) is h. The hash modulo Dim picks the component,
// and a deterministic sign from its high bit keeps features roughly
// centered.
func addFeature(v *Vector, h uint64, w float32) {
	sign := float32(1)
	if h&(1<<63) != 0 {
		sign = -1
	}
	v[h%Dim] += sign * w
}

// Embed returns the L2-normalized embedding of text. The zero vector is
// returned only for texts with no extractable features.
//
// Each feature is hashed by continuing its tag's prefix state over the
// feature's bytes, so no feature re-hashes the model name or allocates.
func (m *Model) Embed(text string) Vector {
	name := fnvByte(fnvString(fnvOffset, m.Name), 0)
	prefix := func(tag string) uint64 { return fnvByte(fnvString(name, tag), 0) }
	hw, hstem, hcw, hcstem, hb, hc3 := prefix("w"), prefix("stem"), prefix("cw"), prefix("cstem"), prefix("b"), prefix("c3")

	var v Vector
	words := nlp.Words(text)
	stems := make([]string, len(words))
	for i, w := range words {
		stems[i] = stem(w)
	}
	// Stemmed features dominate so that morphological variants ("email
	// addresses" vs "email address") land nearly on top of each other;
	// raw surface forms contribute a small residual.
	for i, w := range words {
		addFeature(&v, fnvString(hw, w), 0.5)
		addFeature(&v, fnvString(hstem, stems[i]), 3)
	}
	// Content words are the non-stopwords, in order.
	for i, w := range words {
		if nlp.IsStopword(w) {
			continue
		}
		addFeature(&v, fnvString(hcw, w), 0.5)
		addFeature(&v, fnvString(hcstem, stems[i]), 4)
	}
	// Stemmed bigrams capture phrase structure.
	for i := 0; i+1 < len(stems); i++ {
		addFeature(&v, fnvString(fnvByte(fnvString(hb, stems[i]), ' '), stems[i+1]), 2.5)
	}
	// Character trigrams over the stemmed text catch morphology and typos.
	joined := strings.Join(stems, " ")
	for i := 0; i+3 <= len(joined); i++ {
		addFeature(&v, fnvString(hc3, joined[i:i+3]), 0.4)
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

// Index is an exact top-k nearest-neighbour index over embedded items.
type Index struct {
	model *Model
	keys  []string
	vecs  []Vector
	byKey map[string]int
}

// NewIndex returns an empty index over the model's space with room for n
// items, so an index built to a known size allocates its vectors once.
func NewIndex(m *Model, n int) *Index {
	return &Index{model: m, keys: make([]string, 0, n), vecs: make([]Vector, 0, n), byKey: make(map[string]int, n)}
}

// Add embeds text and indexes it under key. Re-adding a key replaces its
// vector.
func (ix *Index) Add(key, text string) {
	v := ix.model.Embed(text)
	if i, ok := ix.byKey[key]; ok {
		ix.vecs[i] = v
		return
	}
	ix.byKey[key] = len(ix.keys)
	ix.keys = append(ix.keys, key)
	ix.vecs = append(ix.vecs, v)
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return len(ix.keys) }

// Item returns the key and vector of the i-th indexed item, in the order
// keys were first added.
func (ix *Index) Item(i int) (string, Vector) { return ix.keys[i], ix.vecs[i] }

// Search returns the top-k most similar indexed items to the query text,
// sorted by descending score (ties broken by key for determinism). It keeps
// a k-entry buffer in that order rather than sorting every match.
//
// A query's embedding has few nonzero components (tens of Dim), so each
// score sums only their products, in ascending component order. The
// products it skips are exact zeros, which change no float64 sum, so every
// score equals the dense dot product exactly and the ranking is Cosine's.
func (ix *Index) Search(query string, k int) []Match {
	if k <= 0 || len(ix.keys) == 0 {
		return nil
	}
	if k > len(ix.keys) {
		k = len(ix.keys)
	}
	qv := ix.model.Embed(query)
	var nz [Dim]uint16
	n := 0
	for i, x := range qv {
		if x != 0 {
			nz[n] = uint16(i)
			n++
		}
	}
	top := make([]Match, 0, k)
	for i := range ix.vecs {
		m := Match{Key: ix.keys[i], Score: sparseDot(&qv, nz[:n], &ix.vecs[i])}
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

// sparseDot is dot(q, v) for a q whose nonzero components are q[nz[0]],
// q[nz[1]], ... in ascending order.
func sparseDot(q *Vector, nz []uint16, v *Vector) float64 {
	var sum float64
	for _, i := range nz {
		sum += float64(q[i]) * float64(v[i])
	}
	return sum
}

// ranksBefore is Search's order: higher score first, then lower key.
func ranksBefore(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Key < b.Key
}
