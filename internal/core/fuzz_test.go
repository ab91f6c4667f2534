package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeAnalysis: the analysis codec must never panic — truncated,
// bit-flipped, version-skewed or adversarially structured payloads all
// come back as errors. A payload whose envelope decodes also yields its
// extraction, and re-encodes to a fixpoint: decoding the re-encoded bytes
// and encoding again writes the same bytes.
func FuzzDecodeAnalysis(f *testing.F) {
	valid := encodeMini(f, newPipeline(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	// Version-skewed: future codec, and v1.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(valid, &raw); err != nil {
		f.Fatal(err)
	}
	raw["codec"] = json.RawMessage("99")
	skewed, _ := json.Marshal(raw)
	f.Add(skewed)
	raw["codec"] = json.RawMessage("1")
	v1, _ := json.Marshal(raw)
	f.Add(v1)
	// Structurally valid JSON that is not an envelope.
	f.Add([]byte(`{"codec":2,"core":{"arena":{"syms":["a"],"terms":[2,0,9],"atoms":[0,1,1,5]},"clauses":[[-1],[64]]}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	// An older build's payload with the retired core section.
	f.Add(readCorePayload(f))
	// Graph sections with null entries, an orphan, a duplicate node and
	// edge, and an edge to a node the list lacks.
	f.Add(withSection(f, valid, "ed", `{"nodes":[null],"edges":[null]}`))
	f.Add(withSection(f, valid, "data_hierarchy", `{"root":"data","parent":{"a":"b"}}`))
	f.Add(withSection(f, valid, "ed", `{"nodes":[{"id":"a","kind":"data"},{"id":"a","attrs":{"k":"v"}}],`+
		`"edges":[{"from":"a","to":"b","label":"share"},{"from":"a","to":"b","label":"share"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAnalysisEnvelope(data)
		if err != nil {
			return
		}
		if _, err := DecodeExtraction(data); err != nil {
			t.Fatalf("envelope decoded but extraction failed: %v", err)
		}
		once, err := EncodeAnalysis(a)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		again, err := DecodeAnalysisEnvelope(once)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		twice, err := EncodeAnalysis(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is no fixpoint:\n%s\n%s", once, twice)
		}
	})
}
