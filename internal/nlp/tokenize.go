package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single lexical unit produced by Tokenize.
type Token struct {
	// Text is the token surface form, as it appears in the input.
	Text string
	// Start is the byte offset of the token within the input string.
	Start int
	// End is the byte offset one past the last byte of the token.
	End int
	// Kind classifies the token.
	Kind TokenKind
}

// TokenKind classifies tokens into broad lexical classes.
type TokenKind int

// Token kinds recognized by the tokenizer.
const (
	// Word is a run of letters, possibly with internal apostrophes or
	// hyphens ("voice-enabled", "user's").
	Word TokenKind = iota
	// Number is a run of digits, possibly with internal separators.
	Number
	// Punct is a single punctuation rune.
	Punct
)

// String returns a human-readable name for the token kind.
func (k TokenKind) String() string {
	switch k {
	case Word:
		return "word"
	case Number:
		return "number"
	case Punct:
		return "punct"
	default:
		return "unknown"
	}
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Tokenize splits s into word, number and punctuation tokens. Whitespace is
// discarded. Internal hyphens and apostrophes are kept inside word tokens so
// that compounds like "voice-enabled" and possessives like "user's" survive
// as single tokens, matching how the extraction prompts treat them.
func Tokenize(s string) []Token {
	var toks []Token
	for i := 0; ; {
		start, end, kind := scan(s, i)
		if start == end {
			return toks
		}
		toks = append(toks, Token{Text: s[start:end], Start: start, End: end, Kind: kind})
		i = end
	}
}

// NextWord returns the first word token of s at or after byte offset i,
// lowercased as Words lowercases it, and the offset just past the token;
// ok is false when no word token is left. Ranging over s with NextWord
// yields Words(s) without building a slice.
func NextWord(s string, i int) (word string, next int, ok bool) {
	for {
		start, end, kind := scan(s, i)
		switch {
		case start == end:
			return "", end, false
		case kind == Word:
			return strings.ToLower(s[start:end]), end, true
		}
		i = end
	}
}

// scan finds the first token of s at or after byte offset i and returns
// its bounds and kind; start == end when only whitespace is left. It is
// the one tokenizer behind Tokenize and NextWord.
func scan(s string, i int) (start, end int, kind TokenKind) {
	for i < len(s) {
		r, size := decodeRune(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case isWordRune(r):
			start = i
			i += size
			for i < len(s) {
				r2, sz2 := decodeRune(s[i:])
				if isWordRune(r2) {
					i += sz2
					continue
				}
				// Allow a single internal hyphen or apostrophe when
				// followed by another word rune.
				if (r2 == '-' || r2 == '\'' || r2 == '’') && i+sz2 < len(s) {
					r3, _ := decodeRune(s[i+sz2:])
					if isWordRune(r3) {
						i += sz2
						continue
					}
				}
				break
			}
			if isAllDigits(s[start:i]) {
				return start, i, Number
			}
			return start, i, Word
		default:
			return i, i + size, Punct
		}
	}
	return len(s), len(s), Word
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// decodeRune decodes the first rune of s, reporting the true byte size even
// for invalid UTF-8 (where the replacement rune occupies a single byte).
func decodeRune(s string) (rune, int) {
	return utf8.DecodeRuneInString(s)
}

// Words returns the lowercase word tokens of s, discarding punctuation and
// numbers. It is the common preprocessing step for similarity and matching.
func Words(s string) []string {
	toks := Tokenize(s)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind == Word {
			out = append(out, strings.ToLower(t.Text))
		}
	}
	return out
}

// abbreviations that do not terminate a sentence even though they end in a
// period.
var abbreviations = map[string]bool{
	"e.g": true, "i.e": true, "etc": true, "mr": true, "mrs": true,
	"ms": true, "dr": true, "inc": true, "ltd": true, "co": true,
	"corp": true, "no": true, "vs": true, "u.s": true, "u.k": true,
	"sec": true, "art": true, "para": true,
}

// SplitSentences splits text into sentences on ., !, ? and newlines while
// respecting common abbreviations and decimal numbers. Sentence strings are
// trimmed of surrounding whitespace; empty sentences are dropped.
func SplitSentences(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		s := strings.TrimSpace(b.String())
		if s != "" {
			out = append(out, s)
		}
		b.Reset()
	}
	runes := []rune(text)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		b.WriteRune(r)
		switch r {
		case '\n':
			// A blank line or a bulleted list entry ends a statement.
			flush()
		case '.', '!', '?':
			if r == '.' {
				if i+1 < len(runes) && unicode.IsDigit(runes[i+1]) {
					continue // decimal number like 14.2
				}
				if endsWithAbbreviation(b.String()) {
					continue
				}
			}
			// Require following whitespace or end-of-text to treat the
			// punctuation as a sentence boundary.
			if i+1 >= len(runes) || unicode.IsSpace(runes[i+1]) {
				flush()
			}
		}
	}
	flush()
	return out
}

func endsWithAbbreviation(s string) bool {
	s = strings.TrimSuffix(s, ".")
	j := strings.LastIndexFunc(s, unicode.IsSpace)
	last := strings.ToLower(s[j+1:])
	return abbreviations[last]
}
