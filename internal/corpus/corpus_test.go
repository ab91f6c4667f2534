package corpus

import (
	"strings"
	"testing"
)

func words(s string) int { return len(strings.Fields(s)) }

func TestTikTakScale(t *testing.T) {
	p := TikTak()
	n := words(p)
	if n < 9000 || n > 25000 {
		t.Errorf("TikTak word count = %d, want ~15k", n)
	}
	if !strings.Contains(p, "# TikTak Privacy Policy") {
		t.Error("missing heading")
	}
}

func TestMetaBookScale(t *testing.T) {
	p := MetaBook()
	n := words(p)
	if n < 28000 || n > 60000 {
		t.Errorf("MetaBook word count = %d, want ~40k", n)
	}
	// MetaBook must be substantially larger than TikTak.
	if n < 2*words(TikTak()) {
		t.Error("MetaBook not ~3x TikTak scale")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Company: "X", Seed: 7, PracticeStatements: 50, DataRichness: 30, EntityRichness: 30}
	if Generate(cfg) != Generate(cfg) {
		t.Error("generation not deterministic")
	}
	cfg2 := cfg
	cfg2.Seed = 8
	if Generate(cfg) == Generate(cfg2) {
		t.Error("different seeds produced identical policies")
	}
}

func TestTableStatementsEmbedded(t *testing.T) {
	p := TikTak()
	for _, s := range TableStatements("TikTak") {
		if !strings.Contains(p, s) {
			t.Errorf("policy missing table statement %q", s[:40])
		}
	}
}

func TestMiniPolicy(t *testing.T) {
	p := Mini()
	if !strings.Contains(p, "Acme") || words(p) > 200 {
		t.Errorf("mini policy wrong: %d words", words(p))
	}
}

func TestVocabularyRichness(t *testing.T) {
	// The modifier×base cross products must be large enough for the
	// configured richness values.
	if len(dataModifiers)*len(baseDataTypes) < 400 {
		t.Errorf("data vocab too small: %d", len(dataModifiers)*len(baseDataTypes))
	}
	if len(partyModifiers)*len(basePartyTypes) < 540 {
		t.Errorf("party vocab too small: %d", len(partyModifiers)*len(basePartyTypes))
	}
}

func TestMatchOPP115(t *testing.T) {
	cases := map[string]string{
		"We collect your email address.":             "First Party Collection/Use",
		"We share data with third party advertisers": "Third Party Sharing/Collection",
		"You can opt out at any time.":               "User Choice/Control",
		"We retain data for two years.":              "Data Retention",
		"The sky is blue.":                           "Other",
	}
	for stmt, want := range cases {
		got := MatchOPP115(stmt)
		found := false
		for _, g := range got {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Errorf("MatchOPP115(%q) = %v, want to include %q", stmt, got, want)
		}
	}
}

// vagueConditionSet marks which of conditions are vague.
var vagueConditionSet = map[string]bool{
	"legitimate business purposes": true, "business operations": true,
	"security purposes": true, "legitimate interests apply": true,
	"the public interest requires it": true, "required by law": true,
}

func TestVagueConditionsMarked(t *testing.T) {
	n := 0
	for _, c := range conditions {
		if vagueConditionSet[c] {
			n++
		}
	}
	if n < 3 {
		t.Errorf("only %d vague conditions in vocab", n)
	}
}
