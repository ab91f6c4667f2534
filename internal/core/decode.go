package core

// The analysis decoder: one pass over the envelope's bytes, straight into
// its structs, without reflection. It validates the whole document as
// encoding/json does and, on every document encoding/json decodes into
// analysisEnvelope, returns what encoding/json would, with one exception:
// an object that repeats one of its struct's field keys, or has a key
// matching a field's name only case-insensitively, is refused.
// encoding/json would merge the repeat or fill the field; no encoder
// writes either. Every string value and map key goes through one intern
// table per document, so a string repeated across the payload (a node ID
// in every edge, a segment ID in every practice) is one allocation that
// the decoded analysis shares; strings are copies, so a decoded analysis
// holds no reference to the payload.

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/segment"
)

// maxDepth is encoding/json's nesting limit: a document nesting arrays
// and objects deeper than this is refused.
const maxDepth = 10000

// decoder reads one JSON document. The first error stops it: the error is
// kept, the position moves to the end of the input, and every later read
// finds nothing, so callers check d.err once at the end.
type decoder struct {
	data  []byte
	pos   int
	depth int
	err   error
	// strs interns the document's strings.
	strs map[string]string
	// buf holds the contents of the last string that had escapes or
	// invalid UTF-8 to rewrite.
	buf []byte
}

// The JSON names of each decoded struct's fields, in the order the
// decoding functions below number them.
var (
	envelopeFields   = []string{"codec", "extraction", "company", "ed", "data_hierarchy", "entity_hierarchy"}
	extractionFields = []string{"company", "segments", "practices"}
	segmentFields    = []string{"id", "text", "index", "section"}
	// practiceFields begin with the fields of the embedded llm.ParamSet.
	practiceFields  = []string{"sender", "receiver", "subject", "data_type", "action", "condition", "permission", "segment_id", "vague_terms", "opp_categories"}
	wireFields      = []string{"nodes", "edges"}
	nodeFields      = []string{"id", "kind", "attrs"}
	edgeFields      = []string{"from", "to", "label", "condition", "permission", "subject", "other", "segment_id"}
	hierarchyFields = []string{"root", "parent"}
)

// parseEnvelope decodes an encoded analysis into its envelope. Errors name
// the byte offset where the document went wrong.
func parseEnvelope(data []byte) (*analysisEnvelope, error) {
	// A generated payload has about one distinct string per 250 bytes.
	d := &decoder{data: data, strs: make(map[string]string, len(data)/200)}
	env := &analysisEnvelope{}
	d.fields(envelopeFields, func(i int) {
		switch i {
		case 0:
			d.int(&env.Codec)
		case 1:
			d.extraction(&env.Extraction)
		case 2:
			d.str(&env.Company)
		case 3:
			d.wire(&env.ED)
		case 4:
			d.hierarchy(&env.DataH)
		case 5:
			d.hierarchy(&env.EntityH)
		}
	})
	if d.peek(); d.pos < len(d.data) {
		d.fail("data after the top-level value")
	}
	if d.err != nil {
		return nil, d.err
	}
	return env, nil
}

func (d *decoder) extraction(dst **extract.Extraction) {
	ex := new(extract.Extraction)
	if d.fields(extractionFields, func(i int) {
		switch i {
		case 0:
			d.str(&ex.Company)
		case 1:
			list(d, &ex.Segments, d.segment)
		case 2:
			list(d, &ex.Practices, d.practice)
		}
	}) {
		*dst = ex
	}
}

func (d *decoder) segment(s *segment.Segment) {
	d.fields(segmentFields, func(i int) {
		switch i {
		case 0:
			d.str(&s.ID)
		case 1:
			d.str(&s.Text)
		case 2:
			d.int(&s.Index)
		case 3:
			d.str(&s.Section)
		}
	})
}

func (d *decoder) practice(p *extract.Practice) {
	strs := [...]*string{&p.Sender, &p.Receiver, &p.Subject, &p.DataType, &p.Action, &p.Condition, &p.Permission, &p.SegmentID}
	d.fields(practiceFields, func(i int) {
		switch {
		case i < len(strs):
			d.str(strs[i])
		case i == len(strs):
			list(d, &p.VagueTerms, d.str)
		default:
			list(d, &p.OPPCategories, d.str)
		}
	})
}

func (d *decoder) wire(dst **graph.Wire) {
	w := new(graph.Wire)
	if d.fields(wireFields, func(i int) {
		if i == 0 {
			list(d, &w.Nodes, d.node)
		} else {
			list(d, &w.Edges, d.edge)
		}
	}) {
		*dst = w
	}
}

func (d *decoder) node(dst **graph.Node) {
	n := new(graph.Node)
	if d.fields(nodeFields, func(i int) {
		switch i {
		case 0:
			d.str(&n.ID)
		case 1:
			d.str(&n.Kind)
		case 2:
			d.strMap(&n.Attrs)
		}
	}) {
		*dst = n
	}
}

func (d *decoder) edge(dst **graph.Edge) {
	e := new(graph.Edge)
	strs := [...]*string{&e.From, &e.To, &e.Label, &e.Condition, &e.Permission, &e.Subject, &e.Other, &e.SegmentID}
	if d.fields(edgeFields, func(i int) { d.str(strs[i]) }) {
		*dst = e
	}
}

func (d *decoder) hierarchy(dst **graph.HierarchyWire) {
	h := new(graph.HierarchyWire)
	if d.fields(hierarchyFields, func(i int) {
		if i == 0 {
			d.str(&h.Root)
		} else {
			d.strMap(&h.Parent)
		}
	}) {
		*dst = h
	}
}

// fields reads the object at the current position as a struct whose JSON
// field names are names, calling set(i) to read the value of names[i]. A
// key naming no field is skipped, its value still validated; a repeated
// field key, or a key matching a name only case-insensitively, is an
// error. It reports false for null, leaving the struct as it was.
func (d *decoder) fields(names []string, set func(i int)) bool {
	var seen uint64
	return d.object(func(key []byte) {
		for i, name := range names {
			if string(key) != name {
				continue
			}
			if seen&(1<<i) != 0 {
				d.fail(fmt.Sprintf("repeated key %q", key))
				return
			}
			seen |= 1 << i
			set(i)
			return
		}
		for _, name := range names {
			if bytes.EqualFold(key, []byte(name)) {
				d.fail(fmt.Sprintf("key %q differs from field %q in case", key, name))
				return
			}
		}
		d.skip()
	})
}

// list reads an array into *dst, one element per elem call, which reads
// the value at the current position into its argument. As in
// encoding/json, null leaves *dst nil and [] makes it empty, not nil.
func list[T any](d *decoder, dst *[]T, elem func(*T)) {
	var zero T
	if d.array(func() {
		*dst = append(*dst, zero)
		elem(&(*dst)[len(*dst)-1])
	}) && *dst == nil {
		*dst = []T{}
	}
}

// strMap reads an object of strings into *dst, a repeated key keeping its
// last value. As in encoding/json, null leaves *dst nil and {} makes it
// empty, not nil.
func (d *decoder) strMap(dst *map[string]string) {
	m := make(map[string]string)
	if d.object(func(key []byte) {
		k := d.intern(key)
		var v string
		d.str(&v)
		m[k] = v
	}) {
		*dst = m
	}
}

// str reads a string into *dst, interned; null leaves *dst unset, as in
// encoding/json.
func (d *decoder) str(dst *string) {
	switch d.peek() {
	case '"':
		*dst = d.intern(d.stringBytes())
	case 'n':
		d.literal("null")
	default:
		d.unexpected("string")
	}
}

// intern returns b as a string, the same string for every equal b in the
// document.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// int reads an integer into *dst; null leaves *dst unset. As in
// encoding/json, the number must parse with strconv.ParseInt into an int:
// a fraction, an exponent or an overflow is an error.
func (d *decoder) int(dst *int) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		num := d.number()
		if d.err != nil {
			return
		}
		v, err := strconv.ParseInt(string(num), 10, 0)
		if err != nil {
			d.fail(fmt.Sprintf("number %s is not an int", num))
			return
		}
		*dst = int(v)
	default:
		d.unexpected("integer")
	}
}

// object reads the object at the current position, calling member with
// each key and the decoder at that key's value, which member must read.
// The key is valid only until the value is read. It reports false for
// null; any other value is an error.
func (d *decoder) object(member func(key []byte)) bool {
	return d.container('{', '}', "object", func() {
		if d.peek() != '"' {
			d.unexpected("object key")
			return
		}
		key := d.stringBytes()
		if d.peek() != ':' {
			d.unexpected("':' after object key")
			return
		}
		d.pos++
		member(key)
	})
}

// array reads the array at the current position, calling elem with the
// decoder at each element, which elem must read. It reports false for
// null; any other value is an error.
func (d *decoder) array(elem func()) bool {
	return d.container('[', ']', "array", elem)
}

// container reads the container between the brackets open and close at
// the current position, calling elem at each element, which elem must
// read. It reports false for null; any other value is an error.
func (d *decoder) container(open, close byte, want string, elem func()) bool {
	switch d.peek() {
	case open:
		d.pos++
	case 'n':
		d.literal("null")
		return false
	default:
		d.unexpected(want)
		return false
	}
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
	}
	if d.peek() == close {
		d.pos++
		d.depth--
		return true
	}
	for d.err == nil {
		elem()
		switch d.peek() {
		case ',':
			d.pos++
		case close:
			d.pos++
			d.depth--
			return true
		default:
			d.unexpected(fmt.Sprintf("',' or '%c'", close))
		}
	}
	return true
}

// skip reads and validates any value.
func (d *decoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.object(func([]byte) { d.skip() })
	case c == '[':
		d.array(d.skip)
	case c == '"':
		d.stringBytes()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.unexpected("value")
	}
}

// literal reads the literal lit.
func (d *decoder) literal(lit string) {
	if end := d.pos + len(lit); end > len(d.data) || string(d.data[d.pos:end]) != lit {
		d.unexpected(lit)
		return
	}
	d.pos += len(lit)
}

// number reads a number by JSON's grammar and returns its bytes.
func (d *decoder) number() []byte {
	start := d.pos
	if d.at('-') {
		d.pos++
	}
	if d.at('0') {
		d.pos++
	} else if d.digits() == 0 {
		d.unexpected("digit")
		return nil
	}
	if d.at('.') {
		d.pos++
		if d.digits() == 0 {
			d.unexpected("digit")
			return nil
		}
	}
	if d.at('e') || d.at('E') {
		d.pos++
		if d.at('+') || d.at('-') {
			d.pos++
		}
		if d.digits() == 0 {
			d.unexpected("digit")
			return nil
		}
	}
	return d.data[start:d.pos]
}

// digits reads a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// at reports whether the byte at the current position is c.
func (d *decoder) at(c byte) bool { return d.pos < len(d.data) && d.data[d.pos] == c }

// stringBytes reads the string at the current position and returns its
// contents: escapes decoded, an unpaired surrogate and each byte of
// invalid UTF-8 turned into U+FFFD, as encoding/json decodes them. The
// bytes alias the input or d.buf, so they are valid until the next string
// is read.
func (d *decoder) stringBytes() []byte {
	d.pos++ // the opening quote
	start := d.pos
	for d.pos < len(d.data) && plain(d.data[d.pos]) {
		d.pos++
	}
	if d.at('"') {
		d.pos++
		return d.data[start : d.pos-1]
	}
	return d.unescape(start)
}

// plain reports whether a string holds c as it is: ASCII from the space
// up, but for the quote and the backslash.
func plain(c byte) bool { return ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\' }

// unescape finishes stringBytes from its first byte that is not plain,
// building the contents in d.buf.
func (d *decoder) unescape(start int) []byte {
	b := append(d.buf[:0], d.data[start:d.pos]...)
	defer func() { d.buf = b[:0] }()
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case plain(c):
			b = append(b, c)
			d.pos++
		case c == '"':
			d.pos++
			return b
		case c < ' ':
			d.fail("control character in string")
			return nil
		case c == '\\':
			r := d.escape()
			if r < 0 {
				return nil
			}
			b = utf8.AppendRune(b, r)
		default:
			r, n := utf8.DecodeRune(d.data[d.pos:])
			b = utf8.AppendRune(b, r)
			d.pos += n
		}
	}
	d.fail("unterminated string")
	return nil
}

// escapes maps the byte after a backslash to the byte it stands for, for
// the escapes of one byte.
var escapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// escape reads the escape sequence at the current position and returns
// the rune it stands for, or -1 after an error. A \u escape of a high
// surrogate takes a following \u escape of a low surrogate with it; any
// other surrogate stands for U+FFFD.
func (d *decoder) escape() rune {
	if d.pos+1 < len(d.data) {
		c := d.data[d.pos+1]
		d.pos += 2
		if escapes[c] != 0 {
			return rune(escapes[c])
		}
		if r := d.hex4(d.pos); c == 'u' && r >= 0 {
			d.pos += 4
			if !utf16.IsSurrogate(r) {
				return r
			}
			if d.at('\\') && d.pos+1 < len(d.data) && d.data[d.pos+1] == 'u' {
				if pair := utf16.DecodeRune(r, d.hex4(d.pos+2)); pair != utf8.RuneError {
					d.pos += 6
					return pair
				}
			}
			return utf8.RuneError
		}
	}
	d.fail("invalid escape in string")
	return -1
}

// hex4 returns the value of the four hex digits at p, or -1.
func (d *decoder) hex4(p int) rune {
	if p+4 > len(d.data) {
		return -1
	}
	v, err := strconv.ParseUint(string(d.data[p:p+4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// peek skips whitespace and returns the next byte, or 0 at the end of the
// input.
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// unexpected fails on the byte at the current position, where want was
// due.
func (d *decoder) unexpected(want string) {
	if d.pos >= len(d.data) {
		d.fail("unexpected end of input, want " + want)
		return
	}
	d.fail(fmt.Sprintf("invalid character %q, want %s", d.data[d.pos], want))
}

// fail keeps the first error, naming the byte offset, and stops the read.
func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.pos, msg)
	}
	d.pos = len(d.data)
}
