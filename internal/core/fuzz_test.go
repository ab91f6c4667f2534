package core

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeAnalysis: the analysis codec must never panic — truncated,
// bit-flipped, version-skewed or adversarially structured payloads all
// come back as errors, and a payload whose envelope decodes also yields
// its extraction.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeAnalysisEnvelope(data); err != nil {
			return
		}
		if _, err := DecodeExtraction(data); err != nil {
			t.Fatalf("envelope decoded but extraction failed: %v", err)
		}
	})
}
