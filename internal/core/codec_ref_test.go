package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/segment"
)

// referenceDecodeEnvelope is decodeEnvelope as it was before the one-pass
// decoder, reading the envelope with json.Unmarshal. It is the reference
// the decoder is held to.
func referenceDecodeEnvelope(data []byte) (*extract.Extraction, *kg.KnowledgeGraph, error) {
	var env analysisEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, nil, fmt.Errorf("core: decode analysis: %w", err)
	}
	if env.Codec < 1 || env.Codec > CodecVersion {
		return nil, nil, fmt.Errorf("core: analysis codec %d unsupported (max %d)", env.Codec, CodecVersion)
	}
	if env.Extraction == nil || env.ED == nil || env.DataH == nil || env.EntityH == nil {
		return nil, nil, fmt.Errorf("core: analysis payload incomplete")
	}
	k := &kg.KnowledgeGraph{Company: env.Company}
	var err error
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

// decodeDiff compares the decoder with encoding/json on data, at the
// envelope and after the restore, and says how they differ, or returns ""
// when they agree. Where only encoding/json accepts data, the difference
// is allowed when refusable reports the document refusable.
func decodeDiff(data []byte) string {
	var want analysisEnvelope
	wantErr := json.Unmarshal(data, &want)
	got, gotErr := parseEnvelope(data)
	switch {
	case wantErr != nil && gotErr == nil:
		return fmt.Sprintf("decoder accepts what encoding/json refuses (%v)", wantErr)
	case wantErr == nil && gotErr != nil:
		if refusable(data) {
			return ""
		}
		return fmt.Sprintf("decoder refuses what encoding/json accepts: %v", gotErr)
	case wantErr == nil && !reflect.DeepEqual(*got, want):
		return fmt.Sprintf("envelopes differ:\ndecoder  %+v\nreference %+v", *got, want)
	case wantErr != nil:
		return ""
	}
	gotEx, gotKG, gotErr := decodeEnvelope(data)
	wantEx, wantKG, wantErr := referenceDecodeEnvelope(data)
	switch {
	case (gotErr != nil) != (wantErr != nil):
		return fmt.Sprintf("restore errors differ: decoder %v, reference %v", gotErr, wantErr)
	case !reflect.DeepEqual(gotEx, wantEx):
		return "restored extractions differ"
	case !reflect.DeepEqual(gotKG, wantKG):
		return "restored knowledge graphs differ"
	}
	return ""
}

// refusable reports whether some object of data that encoding/json
// decodes into a struct repeats a key naming one of the struct's fields,
// or has a key matching a field's name only case-insensitively: the
// documents the decoder may refuse. It walks data's tokens beside the
// envelope's types, taking the field names from their json tags.
func refusable(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	found := false
	var walk func(t reflect.Type) error
	walk = func(t reflect.Type) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		for t != nil && t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		switch tok {
		case json.Delim('['):
			var elem reflect.Type
			if t != nil && t.Kind() == reflect.Slice {
				elem = t.Elem()
			}
			for dec.More() {
				if err := walk(elem); err != nil {
					return err
				}
			}
		case json.Delim('{'):
			var fields map[string]reflect.Type
			if t != nil && t.Kind() == reflect.Struct {
				fields = jsonFields(t)
			}
			seen := map[string]bool{}
			for dec.More() {
				tok, err := dec.Token()
				if err != nil {
					return err
				}
				key := tok.(string)
				var next reflect.Type
				if t != nil && t.Kind() == reflect.Map {
					next = t.Elem()
				}
				if ft, ok := fields[key]; ok {
					found = found || seen[key]
					seen[key], next = true, ft
				}
				for name := range fields {
					found = found || name != key && strings.EqualFold(name, key)
				}
				if err := walk(next); err != nil {
					return err
				}
			}
		default:
			return nil
		}
		_, err = dec.Token() // the closing bracket
		return err
	}
	// A document the walk cannot finish is one encoding/json refuses, so
	// its error adds nothing.
	_ = walk(reflect.TypeOf(analysisEnvelope{}))
	return found
}

// jsonFields returns the JSON names and types of t's fields, with the
// fields of embedded structs in place of the embedded struct, as
// encoding/json names them.
func jsonFields(t reflect.Type) map[string]reflect.Type {
	out := map[string]reflect.Type{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Anonymous && f.Type.Kind() == reflect.Struct && name == "":
			for n, ft := range jsonFields(f.Type) {
				out[n] = ft
			}
		case !f.IsExported() || name == "-":
		case name == "":
			out[f.Name] = f.Type
		default:
			out[name] = f.Type
		}
	}
	return out
}

// TestDecoderFieldsMatchTags: each decoded struct's field list names
// exactly the fields encoding/json would fill.
func TestDecoderFieldsMatchTags(t *testing.T) {
	for _, c := range []struct {
		v     any
		names []string
	}{
		{analysisEnvelope{}, envelopeFields},
		{extract.Extraction{}, extractionFields},
		{segment.Segment{}, segmentFields},
		{extract.Practice{}, practiceFields},
		{graph.Wire{}, wireFields},
		{graph.Node{}, nodeFields},
		{graph.Edge{}, edgeFields},
		{graph.HierarchyWire{}, hierarchyFields},
	} {
		var want []string
		for name := range jsonFields(reflect.TypeOf(c.v)) {
			want = append(want, name)
		}
		got := append([]string(nil), c.names...)
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: decoder fields %v, json tags %v", c.v, got, want)
		}
	}
}

// corpusPayloads returns the payloads of the first n policies that
// corpus.WriteCorpus draws from one seed.
func corpusPayloads(tb testing.TB, n int) [][]byte {
	tb.Helper()
	p := newPipeline(tb)
	out := make([][]byte, 0, n)
	for _, text := range generatedPolicies(tb, n, 2707) {
		a, err := p.Analyze(context.Background(), text)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, mustEncode(tb, a))
	}
	return out
}

// TestDecodeMatchesReference: 300 generated payloads, Mini, the stored
// codec-2 fixture with its core section and a codec-1 copy of Mini decode
// exactly as encoding/json decodes them, envelope and restored analysis.
func TestDecodeMatchesReference(t *testing.T) {
	mini := encodeMini(t, newPipeline(t))
	cases := map[string][]byte{
		"mini":    mini,
		"fixture": readCorePayload(t),
		"codec 1": withSection(t, mini, "codec", "1"),
	}
	for i, data := range corpusPayloads(t, 300) {
		cases[fmt.Sprintf("policy %d", i)] = data
	}
	for name, data := range cases {
		// An encoder's output is never refusable, so decodeDiff's
		// exemption must not be what lets these pass.
		if _, err := parseEnvelope(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := decodeDiff(data); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
}

// TestDecodedStringsAreInternedCopies: equal strings of one payload share
// one allocation, and none of them aliases the payload, so overwriting
// the payload changes nothing decoded.
func TestDecodedStringsAreInternedCopies(t *testing.T) {
	data := encodeMini(t, newPipeline(t))
	env, err := parseEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	collect := func(ss ...string) {
		for _, s := range ss {
			if s != "" {
				strs = append(strs, s)
			}
		}
	}
	ex := env.Extraction
	collect(env.Company, ex.Company)
	for _, s := range ex.Segments {
		collect(s.ID, s.Text, s.Section)
	}
	for _, p := range ex.Practices {
		collect(p.Sender, p.Receiver, p.Subject, p.DataType, p.Action, p.Condition, p.Permission, p.SegmentID)
		collect(p.VagueTerms...)
		collect(p.OPPCategories...)
	}
	for _, n := range env.ED.Nodes {
		collect(n.ID, n.Kind)
		for k, v := range n.Attrs {
			collect(k, v)
		}
	}
	for _, e := range env.ED.Edges {
		collect(e.From, e.To, e.Label, e.Condition, e.Permission, e.Subject, e.Other, e.SegmentID)
	}
	for _, h := range []*graph.HierarchyWire{env.DataH, env.EntityH} {
		collect(h.Root)
		for k, v := range h.Parent {
			collect(k, v)
		}
	}
	first := map[string]*byte{}
	for _, s := range strs {
		p := unsafe.StringData(s)
		if q, ok := first[s]; ok && q != p {
			t.Fatalf("%q decoded twice", s)
		}
		first[s] = p
		if lo := uintptr(unsafe.Pointer(&data[0])); uintptr(unsafe.Pointer(p)) >= lo && uintptr(unsafe.Pointer(p)) < lo+uintptr(len(data)) {
			t.Fatalf("%q aliases the payload", s)
		}
	}
	t.Logf("%d strings, %d distinct", len(strs), len(first))
	if len(first)*2 > len(strs) {
		t.Errorf("only %d of %d strings repeat", len(strs)-len(first), len(strs))
	}
	want, err := parseEnvelope(bytes.Clone(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	if !reflect.DeepEqual(env, want) {
		t.Error("overwriting the payload changed the decoded envelope")
	}
}

// decodeCases are documents that exercise the decoder's JSON edge cases:
// escapes, surrogates, invalid UTF-8, null in every position, unknown
// fields, number forms, repeated and case-variant keys, trailing data and
// nesting at the depth limit. Each replaces or wraps a small valid
// envelope.
func decodeCases() []string {
	const node = `{"id":"a","kind":"data","attrs":{"k":"v"}}`
	const edge = `{"from":"a","to":"b","label":"share","condition":"c","permission":"allow","subject":"user","other":"o","segment_id":"s"}`
	const seg = `{"id":"s","text":"t","index":0,"section":"h"}`
	const prac = `{"sender":"a","receiver":"b","subject":"user","data_type":"b","action":"share","condition":"c","permission":"allow","segment_id":"s","vague_terms":["c"],"opp_categories":["x"]}`
	const hier = `{"root":"data","parent":{"b":"data"}}`
	base := func(company, extraction, ed, hierarchy string) string {
		return `{"codec":2,"extraction":` + extraction + `,"company":` + company + `,"ed":` + ed +
			`,"data_hierarchy":` + hierarchy + `,"entity_hierarchy":{"root":"a","parent":{}}}`
	}
	extraction := func(segs, pracs string) string {
		return `{"company":"Acme","segments":[` + segs + `],"practices":[` + pracs + `]}`
	}
	ed := func(nodes, edges string) string { return `{"nodes":[` + nodes + `],"edges":[` + edges + `]}` }
	valid := base(`"Acme"`, extraction(seg, prac), ed(node+`,{"id":"b"}`, edge), hier)
	str := func(s string) string {
		return base(s, extraction(seg, prac), ed(node, edge), hier)
	}
	out := []string{valid, valid + " \n\t\r", " " + valid, valid + " x", valid + "{}", valid + "\x00", "null", "", "[]", `"x"`}
	for _, s := range []string{
		`"a\"b\\c\/d\b\f\n\r\t"`, `"Aé中"`, `"😀"`, `"\ud83d"`, `"\ude00"`,
		`"\ud83d\ude00"`, `"\ud83d\ud83d\ude00"`, `"\ud83d\u0041"`, `"\ud83dA"`, `"\ud83d😀"`, `"\ud83d\n"`,
		`"\u00E9\u00e9"`, `"\u12"`, `"\u12G4"`, `"\x"`, `"\`,
		"\"\xff\"", "\"a\xed\xa0\x80b\"", "\"\xe2\x82\"", "\"\xe2\x82\xac\"", "\"\xef\xbf\xbd\"", "\"a\x01b\"", "\"\t\"",
		"\"\x7f\"", `"abc`, `null`, `1`, `true`, `{}`, `[]`,
	} {
		out = append(out, str(s))
	}
	// null, empty and wrongly typed values in every position.
	for _, c := range [][2]string{
		{`"codec":2`, `"codec":null`}, {`"codec":2`, `"codec":1.0`}, {`"codec":2`, `"codec":1e2`},
		{`"codec":2`, `"codec":2E0`}, {`"codec":2`, `"codec":-0`}, {`"codec":2`, `"codec":99999999999999999999`},
		{`"codec":2`, `"codec":9223372036854775807`}, {`"codec":2`, `"codec":-9223372036854775808`},
		{`"codec":2`, `"codec":-9223372036854775809`}, {`"codec":2`, `"codec":"2"`}, {`"codec":2`, `"codec":02`},
		{`"codec":2`, `"codec":-`}, {`"codec":2`, `"codec":2.`}, {`"codec":2`, `"codec":+2`},
		{`"index":0`, `"index":null`}, {`"index":0`, `"index":-3`}, {`"index":0`, `"index":1.5`},
		{`"index":0`, `"index":18446744073709551616`}, {`"index":0`, `"index":"0"`},
		{`"extraction":{`, `"extraction":null,"x":{`}, {`"ed":{`, `"ed":null,"x":{`},
		{`"data_hierarchy":{`, `"data_hierarchy":null,"x":{`},
		{`"segments":[`, `"segments":null,"x":[`}, {`"practices":[`, `"practices":null,"x":[`},
		{`"nodes":[`, `"nodes":null,"x":[`}, {`"edges":[`, `"edges":null,"x":[`},
		{`"segments":[`, `"segments":[null,`}, {`"practices":[`, `"practices":[null,`},
		{`"nodes":[`, `"nodes":[null,`}, {`"edges":[`, `"edges":[null,`},
		{`"attrs":{"k":"v"}`, `"attrs":null`}, {`"attrs":{"k":"v"}`, `"attrs":{}`},
		{`"attrs":{"k":"v"}`, `"attrs":{"k":null}`}, {`"attrs":{"k":"v"}`, `"attrs":{"k":1}`},
		{`"attrs":{"k":"v"}`, `"attrs":["k"]`}, {`"parent":{"b":"data"}`, `"parent":null`},
		{`"parent":{"b":"data"}`, `"parent":{"b":null}`}, {`"root":"data"`, `"root":null`},
		{`"vague_terms":["c"]`, `"vague_terms":[null]`}, {`"vague_terms":["c"]`, `"vague_terms":null`},
		{`"vague_terms":["c"]`, `"vague_terms":[]`}, {`"vague_terms":["c"]`, `"vague_terms":{}`},
		{`"opp_categories":["x"]`, `"opp_categories":[1]`}, {`"sender":"a"`, `"sender":null`},
		{`"from":"a"`, `"from":null`}, {`"segment_id":"s"}`, `"segment_id":null}`},
		{`"id":"s"`, `"id":["s"]`}, {`"id":"a"`, `"id":{"a":1}`}, {`"id":"a"`, `"id":false`},
		{`"extraction":{`, `"extraction":[],"x":{`}, {`"ed":{`, `"ed":"g","x":{`},
		// Repeated keys: refusable in a struct, last-wins in a map.
		{`"codec":2`, `"codec":2,"codec":2`}, {`"company":"Acme"`, `"company":"Acme","company":"B"`},
		{`"segments":[`, `"segments":[],"segments":[`}, {`"from":"a"`, `"from":"a","from":"a"`},
		// Repeats encoding/json merges: a slice reused, a map or struct filled again.
		{`"segments":[`, `"segments":[{"id":"x"},{"id":"y"}],"segments":[`},
		{`"attrs":{"k":"v"}`, `"attrs":{"j":"w"},"attrs":{"k":"v"}`},
		{`"data_hierarchy":{`, `"data_hierarchy":{"root":"r","parent":{"x":"r"}},"data_hierarchy":{`},
		{`"extraction":{`, `"extraction":{"segments":[{"id":"x"}]},"extraction":{`},
		{`"attrs":{"k":"v"}`, `"attrs":{"k":"v","k":"w"}`}, {`"parent":{"b":"data"}`, `"parent":{"b":"x","b":"data"}`},
		{`"codec":2`, `"codec":2,"x":1,"x":2`},
		// Case variants, folded and escaped keys.
		{`"codec":2`, `"Codec":2`}, {`"codec":2`, `"CODEC":2`}, {`"sender":"a"`, `"ſender":"a"`},
		{`"kind":"data"`, `"Kind":"data"`}, {`"kind":"data"`, `"\u212aind":"data"`},
		{`"codec":2`, `"\u0063odec":2`}, {`"codec":2`, `"codec":2,"Codec":2`},
		{`"attrs":{"k":"v"}`, `"Attrs":{"k":"v"}`}, {`"id":"s"`, `"ID":"s"`}, {`"codec":2`, `"codec":2,"BySegment":{},"ord":1,"-":0,"ParamSet":{}}`},
		// Unknown fields, nested, still validated.
		{`"codec":2`, `"codec":2,"core":{"a":[1,{"b":[true,false,null,"s",-1.5e+3,0.25E-2]}],"c":{}}`},
		{`"id":"s"`, `"id":"s","x":[[],[{}],{"y":"\ud83dé"}]`}, {`"from":"a"`, `"from":"a","x":{"y":[1,2,]}`},
		{`"from":"a"`, `"from":"a","x":01`}, {`"from":"a"`, `"from":"a","x":1.`}, {`"from":"a"`, `"from":"a","x":.5`},
		{`"from":"a"`, `"from":"a","x":1e`}, {`"from":"a"`, `"from":"a","x":-01`}, {`"from":"a"`, `"from":"a","x":tru}`},
		{`"from":"a"`, `"from":"a","x":True`}, {`"from":"a"`, `"from":"a","x":nul`}, {`"from":"a"`, `"from":"a","x":"\q"`},
		{`"from":"a"`, `"from":"a",}`}, {`"from":"a"`, `"from":"a" "to":"b"`}, {`"from":"a"`, `"from" "a"`},
		{`"from":"a"`, "\"from\":\"a\",\x0c\"x\":1"}, {`"from":"a"`, `"from":"a",1:2`},
	} {
		out = append(out, strings.Replace(valid, c[0], c[1], 1))
	}
	// Nesting at and past the limit: the envelope is one level.
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		nest := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		out = append(out, strings.Replace(valid, `"codec":2`, `"codec":2,"core":`+nest, 1))
	}
	out = append(out, strings.Repeat(`{"a":`, maxDepth+1))
	return out
}

func TestDecodeCasesMatchReference(t *testing.T) {
	refused := 0
	for i, doc := range decodeCases() {
		if d := decodeDiff([]byte(doc)); d != "" {
			t.Errorf("case %d %.200q: %s", i, doc, d)
		}
		if _, err := parseEnvelope([]byte(doc)); err != nil {
			refused++
			if !strings.Contains(err.Error(), "offset ") {
				t.Errorf("case %d: error %q names no offset", i, err)
			}
		}
	}
	if refused == 0 {
		t.Error("no case was refused")
	}
}

// FuzzDecodeMatchesReference: on any document, the decoder and
// encoding/json both refuse it or both decode it to deeply equal
// envelopes and restored analyses; only a refusable document (see
// refusable) may be refused by the decoder alone.
func FuzzDecodeMatchesReference(f *testing.F) {
	valid := encodeMini(f, newPipeline(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(withSection(f, valid, "codec", "99"))
	f.Add(withSection(f, valid, "codec", "1"))
	f.Add([]byte(`{"codec":2,"core":{"arena":{"syms":["a"],"terms":[2,0,9],"atoms":[0,1,1,5]},"clauses":[[-1],[64]]}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add(readCorePayload(f))
	f.Add(withSection(f, valid, "ed", `{"nodes":[null],"edges":[null]}`))
	f.Add(withSection(f, valid, "data_hierarchy", `{"root":"data","parent":{"a":"b"}}`))
	f.Add(withSection(f, valid, "ed", `{"nodes":[{"id":"a","kind":"data"},{"id":"a","attrs":{"k":"v"}}],`+
		`"edges":[{"from":"a","to":"b","label":"share"},{"from":"a","to":"b","label":"share"}]}`))
	for _, doc := range decodeCases() {
		if len(doc) < 4096 {
			f.Add([]byte(doc))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := decodeDiff(data); d != "" {
			t.Fatalf("%.300q: %s", data, d)
		}
	})
}

var decodeSink *Analysis

// BenchmarkDecodeAnalysisPolicySized decodes the payloads of 40
// generated policies (corpus.WriteCorpus's parameter mix), one per
// operation: the decode half of a cold engine build.
func BenchmarkDecodeAnalysisPolicySized(b *testing.B) {
	all := corpusPayloads(b, 40)
	size := 0
	for _, data := range all {
		size += len(data)
	}
	b.SetBytes(int64(size / len(all)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := DecodeAnalysisEnvelope(all[i%len(all)])
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = a
	}
}
