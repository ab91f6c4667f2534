package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
)

// corePayloadFile is a Mini analysis written by an older build whose
// engines kept a whole-policy solver core: a codec-2 payload with a "core"
// section (the core's interned arena and base clauses). No current build
// writes or reads that section.
const corePayloadFile = "testdata/mini-v2-core.json"

// codecQuestions are the Mini questions every decoded payload must answer
// as a fresh analysis does.
var codecQuestions = map[string]query.Verdict{
	"Does Acme sell my personal information?":                     query.Invalid,
	"Does Acme share my email address with advertising partners?": query.Valid,
}

func readCorePayload(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(corePayloadFile)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func encodeMini(t testing.TB, p *Pipeline) []byte {
	t.Helper()
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newPipeline(t testing.TB) *Pipeline {
	t.Helper()
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// askAll decodes a payload on a fresh pipeline and answers codecQuestions,
// keyed by question.
func askAll(t *testing.T, name string, data []byte) map[string]*query.Result {
	t.Helper()
	loaded, err := newPipeline(t).DecodeAnalysis(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	out := map[string]*query.Result{}
	for q, want := range codecQuestions {
		res, err := loaded.Engine.Ask(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %q: %v", name, q, err)
		}
		if res.Verdict != want {
			t.Errorf("%s: %q verdict = %s, want %s", name, q, res.Verdict, want)
		}
		out[q] = res
	}
	return out
}

// TestCodecV2CorePayloadDecodes: a stored codec-2 payload that carries the
// retired core section decodes to the same verdicts, causes and
// conditions as a coreless Mini payload written by this build.
func TestCodecV2CorePayloadDecodes(t *testing.T) {
	withCore := readCorePayload(t)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(withCore, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["codec"]) != "2" || len(raw["core"]) == 0 {
		t.Fatalf("fixture is not a codec-2 payload with a core section: codec %s, core %d bytes",
			raw["codec"], len(raw["core"]))
	}

	got := askAll(t, "core payload", withCore)
	want := askAll(t, "coreless payload", encodeMini(t, newPipeline(t)))
	for q := range codecQuestions {
		g, w := got[q], want[q]
		if g.Verdict != w.Verdict || g.Cause != w.Cause || g.Contradiction != w.Contradiction ||
			!reflect.DeepEqual(g.ConditionalOn, w.ConditionalOn) {
			t.Errorf("%q: core payload %s/%q/%v/%v, coreless %s/%q/%v/%v", q,
				g.Verdict, g.Cause, g.ConditionalOn, g.Contradiction,
				w.Verdict, w.Cause, w.ConditionalOn, w.Contradiction)
		}
	}
}

// TestCodecV2OmitsCoreWithoutSharedEngine: EncodeAnalysis never writes a
// core section, so every payload this build stores has the layout codecs
// 1 and 2 share.
func TestCodecV2OmitsCoreWithoutSharedEngine(t *testing.T) {
	data := encodeMini(t, newPipeline(t))
	if bytes.Contains(data, []byte(`"core"`)) {
		t.Error("payload contains a core section")
	}
	var env analysisEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Codec != CodecVersion {
		t.Errorf("codec = %d, want %d", env.Codec, CodecVersion)
	}
}

// TestCodecV1StillDecodes: a v1 payload (codec 1, no core section) must
// decode on a current build.
func TestCodecV1StillDecodes(t *testing.T) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(encodeMini(t, newPipeline(t)), &raw); err != nil {
		t.Fatal(err)
	}
	raw["codec"] = json.RawMessage("1")
	v1, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	askAll(t, "v1 payload", v1)
}

// TestCodecFixtureSectionsRoundTrip: decoding the stored fixture and
// encoding the result writes every section but the retired core section
// byte for byte as stored, and nothing else.
func TestCodecFixtureSectionsRoundTrip(t *testing.T) {
	stored := readCorePayload(t)
	a, err := DecodeAnalysisEnvelope(stored)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	var want, got map[string]json.RawMessage
	if err := json.Unmarshal(stored, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(encoded, &got); err != nil {
		t.Fatal(err)
	}
	delete(want, "core")
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("section %q re-encodes as\n%s\nwant\n%s", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("re-encoded sections %d, want %d", len(got), len(want))
	}
}

// withSection returns payload with one top-level section replaced.
func withSection(t testing.TB, payload []byte, name, section string) []byte {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(payload, &raw); err != nil {
		t.Fatal(err)
	}
	raw[name] = json.RawMessage(section)
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCorruptPayloadsErrorNotPanic: hostile or damaged payload bytes must
// surface as decode errors — the signal the serving layer quarantines
// on — never as a panic or a half-built analysis.
func TestCorruptPayloadsErrorNotPanic(t *testing.T) {
	p := newPipeline(t)
	valid := encodeMini(t, p)
	cases := map[string][]byte{
		"empty":            {},
		"not json":         []byte("\xff\xfe:definitely-not-json"),
		"wrong shape":      []byte(`[1,2,3]`),
		"truncated":        valid[:len(valid)/2],
		"future codec":     []byte(`{"codec":99}`),
		"zero codec":       []byte(`{"codec":0}`),
		"missing sections": []byte(`{"codec":2}`),
		"null graph":       withSection(t, valid, "ed", `null`),
		"graph not object": withSection(t, valid, "ed", `[1]`),
		"null node":        withSection(t, valid, "ed", `{"nodes":[null],"edges":[]}`),
		"null edge":        withSection(t, valid, "ed", `{"nodes":[],"edges":[null]}`),
		"mistyped node":    withSection(t, valid, "ed", `{"nodes":[{"id":1}],"edges":[]}`),
		"null hierarchy":   withSection(t, valid, "entity_hierarchy", `null`),
		"orphaned terms":   withSection(t, valid, "data_hierarchy", `{"root":"data","parent":{"email":"contact","contact":"email"}}`),
		"root as child":    withSection(t, valid, "data_hierarchy", `{"root":"data","parent":{"data":"email","email":"data"}}`),
		"mistyped root":    withSection(t, valid, "entity_hierarchy", `{"root":1}`),
	}
	for name, data := range cases {
		if _, err := p.DecodeAnalysis(data); err == nil {
			t.Errorf("%s: decode accepted a corrupt payload", name)
		}
		if _, err := DecodeAnalysisEnvelope(data); err == nil {
			t.Errorf("%s: envelope decode accepted a corrupt payload", name)
		}
		if _, err := DecodeExtraction(data); err == nil {
			t.Errorf("%s: extraction decode accepted a corrupt payload", name)
		}
	}
}

// TestCorruptCoreSectionIsIgnored: the core section is never read, so a
// tampered one fails neither the decode nor the query.
func TestCorruptCoreSectionIsIgnored(t *testing.T) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(readCorePayload(t), &raw); err != nil {
		t.Fatal(err)
	}
	for name, core := range map[string]string{
		"bad term kind": `{"arena":{"syms":["a"],"terms":[99,0,0],"atoms":[]},"clauses":[[-1]]}`,
		"wrong type":    `[1,2,3]`,
		"null":          `null`,
	} {
		raw["core"] = json.RawMessage(core)
		data, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		askAll(t, name, data)
	}
}
