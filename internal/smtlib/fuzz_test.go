package smtlib

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// FuzzParse checks that the s-expression reader never panics and that any
// successfully parsed input re-prints to something that parses again to
// the same rendering (print/parse fixpoint).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"(set-logic UF)",
		"(assert (forall ((x U)) (=> (p x) (q x))))",
		"(declare-fun f (U U) Bool)",
		"; comment\n(check-sat)",
		`(set-info :source "quoted ""string""")`,
		"(a (b (c (d))))",
		"|quoted symbol|",
		"((((",
		"))))",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		exprs, err := Parse(src)
		if err != nil {
			return // malformed input is fine; panics are not
		}
		for _, e := range exprs {
			printed := e.String()
			re, err := ParseOne(printed)
			if err != nil {
				t.Fatalf("re-parse of %q failed: %v", printed, err)
			}
			if re.String() != printed {
				t.Fatalf("print/parse not a fixpoint: %q -> %q", printed, re.String())
			}
		}
	})
}

// FuzzDecodeScript checks the script decoder never panics on arbitrary
// input and accepts no script that declares more than one sort.
func FuzzDecodeScript(f *testing.F) {
	f.Add("(declare-fun p () Bool)(assert p)(check-sat)")
	f.Add("(declare-sort U 0)(declare-const a U)(assert (= a a))")
	f.Add("(assert (forall ((x U)) x))")
	f.Add(twoSortScript)
	f.Add("(declare-sort A 0)(declare-sort B 0)(declare-fun p (A) Bool)(declare-const b B)(assert (p b))(check-sat)")
	f.Add("(declare-sort A 0)(declare-const a A)(declare-sort A 0)(check-sat)")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := DecodeScript(src); err != nil {
			return
		}
		cmds, _ := Parse(src)
		sorts := 0
		for _, c := range cmds {
			if !c.IsAtom() && len(c.List) > 0 && c.Head() == "declare-sort" {
				sorts++
			}
		}
		if sorts > 1 {
			t.Fatalf("accepted a script declaring %d sorts: %q", sorts, src)
		}
	})
}

// referenceSimpleSymbol is simpleSymbol by the unicode package alone, rune
// by rune: the reference the byte table must match.
func referenceSimpleSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '~' || r == '!' || r == '@' || r == '$' || r == '%' ||
			r == '^' || r == '&' || r == '*' || r == '_' || r == '-' ||
			r == '+' || r == '=' || r == '<' || r == '>' || r == '.' ||
			r == '?' || r == '/' || unicode.IsLetter(r) || unicode.IsDigit(r)
		if !ok || i == 0 && unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// referenceLooksLikeLiteral is looksLikeLiteral by the unicode package.
func referenceLooksLikeLiteral(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == ':' {
		return true
	}
	for _, r := range s {
		if !unicode.IsDigit(r) && r != '.' {
			return false
		}
	}
	return true
}

// referenceQuoteSymbol is quoteSymbol over the unicode-package references.
func referenceQuoteSymbol(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return `"` + strings.ReplaceAll(s[1:len(s)-1], `"`, `""`) + `"`
	}
	if referenceSimpleSymbol(s) || isReserved(s) || referenceLooksLikeLiteral(s) {
		return s
	}
	clean := strings.Map(func(r rune) rune {
		if r == '|' || r == '\\' {
			return '_'
		}
		return r
	}, s)
	return "|" + clean + "|"
}

// symbolSeeds cover every ASCII byte, quotes, backslashes, bars, newlines,
// digits first and later, numerals, keywords, non-ASCII letters and digits
// (Arabic-Indic, fullwidth), non-letters past ASCII and invalid UTF-8.
var symbolSeeds = []string{
	"", "x", "practice", "t_42", "42", "4.2", "..", ":named", "a b", "a\nb", `a"b`, `"quoted"`,
	`"in""side"`, `a\b`, "a|b", "|", `\`, "check-sat", "=>", "é", "日本語", "x٣", "٣x", "１x",
	"x１", "Ⅻ", "a€b", "\xff", "a\xc3", " ", "~!@$%^&*_-+=<>.?/", "-1", "+",
}

// TestQuoteSymbolMatchesReference holds quoteSymbol to the unicode
// reference on every one- and two-byte string of ASCII, the seeds, and
// random strings over them.
func TestQuoteSymbolMatchesReference(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if got, want := quoteSymbol(s), referenceQuoteSymbol(s); got != want {
			t.Fatalf("quoteSymbol(%q) = %q, reference %q", s, got, want)
		}
	}
	for a := 0; a < 128; a++ {
		check(string(rune(a)))
		for b := 0; b < 128; b++ {
			check(string([]byte{byte(a), byte(b)}))
		}
	}
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for j, n := 0, 1+r.Intn(4); j < n; j++ {
			b.WriteString(symbolSeeds[r.Intn(len(symbolSeeds))])
		}
		check(b.String())
	}
}

// FuzzQuoteSymbolMatchesReference: any atom prints as the unicode
// reference prints it.
func FuzzQuoteSymbolMatchesReference(f *testing.F) {
	for _, s := range symbolSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := quoteSymbol(s), referenceQuoteSymbol(s); got != want {
			t.Fatalf("quoteSymbol(%q) = %q, reference %q", s, got, want)
		}
	})
}
