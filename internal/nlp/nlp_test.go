package nlp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("We collect your email, phone number.")
	var words []string
	for _, tk := range toks {
		if tk.Kind == Word {
			words = append(words, tk.Text)
		}
	}
	want := []string{"We", "collect", "your", "email", "phone", "number"}
	if !reflect.DeepEqual(words, want) {
		t.Fatalf("words = %v, want %v", words, want)
	}
}

func TestTokenizeCompounds(t *testing.T) {
	toks := Tokenize("voice-enabled features and user's data")
	if toks[0].Text != "voice-enabled" {
		t.Errorf("hyphenated compound split: %q", toks[0].Text)
	}
	var found bool
	for _, tk := range toks {
		if tk.Text == "user's" {
			found = true
		}
	}
	if !found {
		t.Errorf("possessive split apart: %v", toks)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	s := "ab cd"
	toks := Tokenize(s)
	for _, tk := range toks {
		if s[tk.Start:tk.End] != tk.Text {
			t.Errorf("offset mismatch: %q vs %q", s[tk.Start:tk.End], tk.Text)
		}
	}
}

func TestTokenizeNumberKind(t *testing.T) {
	toks := Tokenize("within 30 days")
	if toks[1].Kind != Number {
		t.Errorf("kind(30) = %v, want Number", toks[1].Kind)
	}
	if toks[1].Kind.String() != "number" {
		t.Errorf("String() = %q", toks[1].Kind.String())
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("   \t\n"); len(got) != 0 {
		t.Errorf("Tokenize(ws) = %v", got)
	}
}

func TestSplitSentences(t *testing.T) {
	text := "We never share personal data. We may disclose data if required by law! Do you consent?"
	got := SplitSentences(text)
	if len(got) != 3 {
		t.Fatalf("got %d sentences: %v", len(got), got)
	}
	if !strings.HasPrefix(got[1], "We may disclose") {
		t.Errorf("second sentence = %q", got[1])
	}
}

func TestSplitSentencesAbbreviationsAndDecimals(t *testing.T) {
	text := "PolicyLint found that 14.2% of apps, e.g. social apps, contain contradictions. Manual review disagreed."
	got := SplitSentences(text)
	if len(got) != 2 {
		t.Fatalf("abbreviation/decimal handling broke: %v", got)
	}
}

func TestSplitSentencesNewlines(t *testing.T) {
	got := SplitSentences("First statement\nSecond statement")
	if len(got) != 2 {
		t.Fatalf("newline split: %v", got)
	}
}

func TestVerbBase(t *testing.T) {
	cases := map[string]string{
		"collects": "collect", "collecting": "collect", "collected": "collect",
		"shares": "share", "sharing": "share", "shared": "share",
		"uses": "use", "using": "use", "used": "use",
		"provides": "provide", "providing": "provide", "provided": "provide",
		"processes": "process", "processing": "process", "processed": "process",
		"notifies": "notify", "notified": "notify",
		"stores": "store", "storing": "store", "stored": "store",
		"discloses": "disclose", "disclosing": "disclose",
		"gives": "give", "gave": "give", "given": "give",
		"makes": "make", "made": "make",
		"sells": "sell", "sold": "sell",
		"permitted": "permit", "running": "run",
		"accesses": "access", "accessed": "access",
		"receives": "receive", "received": "receive",
		"transfers": "transfer", "transferred": "transfer",
		"chooses": "choose", "chose": "choose",
		"collect": "collect", "share": "share", "is": "be", "are": "be",
		"engages": "engage", "preserves": "preserve",
	}
	for in, want := range cases {
		if got := VerbBase(in); got != want {
			t.Errorf("VerbBase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSingular(t *testing.T) {
	cases := map[string]string{
		"email addresses":      "email address",
		"phone numbers":        "phone number",
		"cookies":              "cookie",
		"third parties":        "third party",
		"children":             "child",
		"information":          "information",
		"data":                 "data",
		"addresses":            "address",
		"devices":              "device",
		"photos":               "photo",
		"purchases":            "purchase",
		"transactions":         "transaction",
		"account":              "account",
		"analytics":            "analytics",
		"service providers":    "service provider",
		"advertising partners": "advertising partner",
		"categories":           "category",
		"searches":             "search",
	}
	for in, want := range cases {
		if got := Singular(in); got != want {
			t.Errorf("Singular(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizePhrase(t *testing.T) {
	cases := map[string]string{
		"  The Email Address. ": "email address",
		"your phone contacts":   "phone contacts",
		"a  device identifier":  "device identifier",
		"Data":                  "data",
	}
	for in, want := range cases {
		if got := NormalizePhrase(in); got != want {
			t.Errorf("NormalizePhrase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCanonicalTerm(t *testing.T) {
	if got := CanonicalTerm("Your Email Addresses"); got != "email address" {
		t.Errorf("CanonicalTerm = %q", got)
	}
	if CanonicalTerm("email address") != CanonicalTerm("  the Email Addresses ") {
		t.Error("canonicalization not idempotent across variants")
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "We", "OR"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false", w)
		}
	}
	for _, w := range []string{"email", "share", "tiktok"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true", w)
		}
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("We share your email with the advertising partners")
	want := []string{"share", "email", "advertising", "partners"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentWords = %v, want %v", got, want)
	}
}

func TestJaccardWords(t *testing.T) {
	if s := JaccardWords("email address", "email address"); s != 1 {
		t.Errorf("identical Jaccard = %v", s)
	}
	if s := JaccardWords("email address", "postal address"); s <= 0 || s >= 1 {
		t.Errorf("overlapping Jaccard = %v", s)
	}
	if s := JaccardWords("email", "cookie"); s != 0 {
		t.Errorf("disjoint Jaccard = %v", s)
	}
	if s := JaccardWords("", ""); s != 1 {
		t.Errorf("empty Jaccard = %v", s)
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList("such as name, age, username, password, and email")
	want := []string{"name", "age", "username", "password", "email"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SplitList = %v, want %v", got, want)
	}
}

func TestSplitListOrAndTwoItems(t *testing.T) {
	got := SplitList("names and phone numbers")
	if !reflect.DeepEqual(got, []string{"names", "phone numbers"}) {
		t.Errorf("and-pair: %v", got)
	}
	got = SplitList("cookies or pixels")
	if !reflect.DeepEqual(got, []string{"cookies", "pixels"}) {
		t.Errorf("or-pair: %v", got)
	}
}

// Property: tokenization never loses word characters and offsets are
// monotonically increasing.
func TestTokenizeProperty(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		last := 0
		for _, tk := range toks {
			if tk.Start < last || tk.End <= tk.Start || tk.End > len(s) {
				return false
			}
			if s[tk.Start:tk.End] != tk.Text {
				return false
			}
			last = tk.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Singular and VerbBase are idempotent on their own output for
// ASCII lowercase words.
func TestNormalizationIdempotent(t *testing.T) {
	words := []string{"collects", "shares", "addresses", "cookies", "parties",
		"using", "provided", "children", "data", "purchases", "notifies"}
	for _, w := range words {
		if v := VerbBase(w); VerbBase(v) != v {
			t.Errorf("VerbBase not idempotent on %q: %q -> %q", w, v, VerbBase(v))
		}
		if s := Singular(w); Singular(s) != s {
			t.Errorf("Singular not idempotent on %q: %q -> %q", w, s, Singular(s))
		}
	}
}

func TestSplitSentencesProperty(t *testing.T) {
	f := func(s string) bool {
		for _, sent := range SplitSentences(s) {
			if strings.TrimSpace(sent) == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNextWordMatchesWords: ranging over a text with NextWord yields
// Words of the text, for quick-checked strings and ones built from word
// runes, joiners, digits, invalid UTF-8 and letters whose lowercase
// differs in byte length.
func TestNextWordMatchesWords(t *testing.T) {
	words := func(s string) []string {
		out := []string{}
		for w, i, ok := NextWord(s, 0); ok; w, i, ok = NextWord(s, i) {
			out = append(out, w)
		}
		return out
	}
	f := func(s string) bool { return reflect.DeepEqual(words(s), Words(s)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"", " ", "We-'re USER's data-", "a--b c’d 42 x2 İSTANBUL ΣΑΣ", "\xff\xfeab\xffcd", "-'’"} {
		if !f(s) {
			t.Errorf("%q: NextWord yields %q, Words %q", s, words(s), Words(s))
		}
	}
}
