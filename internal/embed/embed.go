// Package embed provides the deterministic text-embedding substrate that
// stands in for OpenAI's text-embedding-3-large and SciBERT in the paper's
// pipeline. Vectors are built from hashed word and character-n-gram
// features and L2-normalized, so lexically and morphologically similar
// terms ("email address" / "email addresses" / "email") land close in
// cosine space — the property the pipeline actually depends on for
// vocabulary translation and taxonomy-edge filtering.
package embed

import (
	"hash/fnv"
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

func (m *Model) feature(tag, s string) (int, float32) {
	h := fnv.New64a()
	h.Write([]byte(m.Name))
	h.Write([]byte{0})
	h.Write([]byte(tag))
	h.Write([]byte{0})
	h.Write([]byte(s))
	v := h.Sum64()
	idx := int(v % Dim)
	// Deterministic sign from a high bit keeps features roughly centered.
	sign := float32(1)
	if v&(1<<63) != 0 {
		sign = -1
	}
	return idx, sign
}

// Embed returns the L2-normalized embedding of text. The zero vector is
// returned only for texts with no extractable features.
func (m *Model) Embed(text string) Vector {
	var v Vector
	add := func(tag, s string, w float32) {
		idx, sign := m.feature(tag, s)
		v[idx] += sign * w
	}
	words := nlp.Words(text)
	content := nlp.ContentWords(text)
	stems := make([]string, len(words))
	for i, w := range words {
		stems[i] = stem(w)
	}
	// Stemmed features dominate so that morphological variants ("email
	// addresses" vs "email address") land nearly on top of each other;
	// raw surface forms contribute a small residual.
	for i, w := range words {
		add("w", w, 0.5)
		add("stem", stems[i], 3)
	}
	for _, w := range content {
		add("cw", w, 0.5)
		add("cstem", stem(w), 4)
	}
	// Stemmed bigrams capture phrase structure.
	for i := 0; i+1 < len(stems); i++ {
		add("b", stems[i]+" "+stems[i+1], 2.5)
	}
	// Character trigrams over the stemmed text catch morphology and typos.
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

// dot is Cosine over pointers, so a search scores each indexed vector
// without copying it.
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

// NewIndex returns an empty index over the model's space.
func NewIndex(m *Model) *Index {
	return &Index{model: m, byKey: map[string]int{}}
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

// Search returns the top-k most similar indexed items to the query text,
// sorted by descending score (ties broken by key for determinism). It keeps
// a k-entry buffer in that order rather than sorting every match.
func (ix *Index) Search(query string, k int) []Match {
	if k <= 0 || len(ix.keys) == 0 {
		return nil
	}
	if k > len(ix.keys) {
		k = len(ix.keys)
	}
	qv := ix.model.Embed(query)
	top := make([]Match, 0, k)
	for i := range ix.vecs {
		m := Match{Key: ix.keys[i], Score: dot(&qv, &ix.vecs[i])}
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
