package core

// Analysis codec: one self-describing envelope per analysis, replacing
// the old per-company scatter of cache blobs. The envelope is versioned
// so future schema changes can migrate old payloads instead of misreading
// them, and it is the unit the policy store persists per version.

import (
	"encoding/json"
	"fmt"

	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/kg"
)

// CodecVersion is the current analysis envelope schema version. Decoders
// accept any version up to this; payloads from a newer build are rejected
// rather than misread.
//
// Versions 1 and 2 share one layout. Some stored v2 payloads also carry a
// "core" section (a solver-core image); nothing reads it, and decoding
// ignores it like any other unknown field.
const CodecVersion = 2

// analysisEnvelope is the serialized form of one Analysis. The graph
// sections are wire structs, so the whole payload is written (by
// encoding/json) and read (by parseEnvelope) in one pass and the graphs
// are restored from the decoded sections.
type analysisEnvelope struct {
	// Codec is the schema version of this payload.
	Codec int `json:"codec"`
	// Extraction is the Phase 1 output.
	Extraction *extract.Extraction `json:"extraction"`
	// Company plus the three graph components are the Phase 2 output.
	Company string               `json:"company"`
	ED      *graph.Wire          `json:"ed"`
	DataH   *graph.HierarchyWire `json:"data_hierarchy"`
	EntityH *graph.HierarchyWire `json:"entity_hierarchy"`
}

// EncodeAnalysis serializes an analysis into the versioned envelope. The
// query engine is derived state and is not serialized.
func EncodeAnalysis(a *Analysis) ([]byte, error) {
	env := analysisEnvelope{
		Codec:      CodecVersion,
		Extraction: a.Extraction,
		Company:    a.KG.Company,
		ED:         a.KG.ED.Wire(),
		DataH:      a.KG.DataH.Wire(),
		EntityH:    a.KG.EntityH.Wire(),
	}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("core: encode analysis: %w", err)
	}
	return data, nil
}

// decodeEnvelope parses and validates the envelope and restores its
// extraction and knowledge graph, without building derived state.
func decodeEnvelope(data []byte) (*extract.Extraction, *kg.KnowledgeGraph, error) {
	env, err := parseEnvelope(data)
	if err != nil {
		return nil, nil, fmt.Errorf("core: decode analysis: %w", err)
	}
	if env.Codec < 1 || env.Codec > CodecVersion {
		return nil, nil, fmt.Errorf("core: analysis codec %d unsupported (max %d)", env.Codec, CodecVersion)
	}
	if env.Extraction == nil || env.ED == nil || env.DataH == nil || env.EntityH == nil {
		return nil, nil, fmt.Errorf("core: analysis payload incomplete")
	}
	k := &kg.KnowledgeGraph{Company: env.Company}
	if k.ED, err = env.ED.Graph(); err != nil {
		return nil, nil, fmt.Errorf("core: decode analysis: %w", err)
	}
	if k.DataH, err = env.DataH.Hierarchy(); err != nil {
		return nil, nil, fmt.Errorf("core: decode analysis: %w", err)
	}
	if k.EntityH, err = env.EntityH.Hierarchy(); err != nil {
		return nil, nil, fmt.Errorf("core: decode analysis: %w", err)
	}
	return env.Extraction, k, nil
}

// DecodeAnalysisEnvelope restores an encoded analysis up to but not
// including the query engine: the envelope is parsed and validated and
// the knowledge graph reassembled. The returned Analysis has a nil Engine
// — callers that only need metadata (version diffing, warm-order
// planning) stop here; callers that will serve queries attach an engine
// with Pipeline.BuildEngine. The split is what makes lazy recovery cheap:
// the store can be indexed and triaged without paying engine construction
// per policy.
func DecodeAnalysisEnvelope(data []byte) (*Analysis, error) {
	ex, k, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	return &Analysis{Extraction: ex, KG: k}, nil
}

// BuildEngine attaches a query engine — wired to this pipeline's limits,
// workers, caches and metrics — to a decoded analysis and warms it, so a
// stored analysis is ready for questions when it is served: the
// vocabulary index is built. Idempotent: an analysis that already has an
// engine is left untouched.
func (p *Pipeline) BuildEngine(a *Analysis) {
	if a.Engine == nil {
		a.Engine = p.newEngine(a.KG)
		a.Engine.Warm()
	}
}

// DecodeAnalysis restores an encoded analysis and rebuilds its derived
// state — a query engine wired to this pipeline's limits, workers, caches
// and metrics — so a restored policy answers queries exactly like a
// freshly analyzed one. It is DecodeAnalysisEnvelope followed by
// BuildEngine.
func (p *Pipeline) DecodeAnalysis(data []byte) (*Analysis, error) {
	a, err := DecodeAnalysisEnvelope(data)
	if err != nil {
		return nil, err
	}
	p.BuildEngine(a)
	return a, nil
}

// DecodeExtraction restores only the Phase 1 extraction from an encoded
// analysis — enough for version diffing without rebuilding graphs or
// engines.
func DecodeExtraction(data []byte) (*extract.Extraction, error) {
	ex, _, err := decodeEnvelope(data)
	return ex, err
}
