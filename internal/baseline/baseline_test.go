package baseline

import (
	"context"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/llm"
)

func practice(action, data, perm, cond string) extract.Practice {
	return extract.Practice{ParamSet: llm.ParamSet{
		Sender: "Acme", Receiver: "third party", Subject: "user",
		DataType: data, Action: action, Permission: perm, Condition: cond,
	}}
}

func TestLintFindsApparentContradiction(t *testing.T) {
	ps := []extract.Practice{
		practice("share", "location data", "allow", ""),
		practice("share", "location data", "deny", ""),
	}
	rep := Lint(ps)
	if len(rep.Apparent) != 1 || rep.Genuine != 1 || rep.Exceptions != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestLintClassifiesExceptionPattern(t *testing.T) {
	// "We don't share location data" + "We share location data with
	// mapping services [if you enable location]": PolicyLint flags it;
	// condition-aware review recognizes the exception.
	ps := []extract.Practice{
		practice("share", "location data", "deny", ""),
		practice("share", "location data", "allow", "you enable location services"),
	}
	rep := Lint(ps)
	if len(rep.Apparent) != 1 {
		t.Fatalf("apparent = %d", len(rep.Apparent))
	}
	if rep.Exceptions != 1 || rep.Genuine != 0 {
		t.Errorf("exception not recognized: %+v", rep)
	}
}

func TestLintIgnoresDifferentData(t *testing.T) {
	ps := []extract.Practice{
		practice("share", "email address", "allow", ""),
		practice("share", "location data", "deny", ""),
	}
	if rep := Lint(ps); len(rep.Apparent) != 0 {
		t.Errorf("false positive: %+v", rep)
	}
}

func TestLintNormalizesActionForms(t *testing.T) {
	ps := []extract.Practice{
		practice("shares", "email addresses", "allow", ""),
		practice("share", "email address", "deny", ""),
	}
	if rep := Lint(ps); len(rep.Apparent) != 1 {
		t.Errorf("inflection defeated matching: %+v", rep)
	}
}

func TestFixedTaxonomyCoverage(t *testing.T) {
	rep := FixedTaxonomyCoverage([]string{
		"email address",            // covered
		"gps location",             // covered (location)
		"neural network embedding", // novel
		"voiceprint",               // novel
	})
	if rep.Total != 4 || rep.Covered != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Uncovered) != 2 || rep.Uncovered[0] != "neural network embedding" {
		t.Errorf("uncovered = %v", rep.Uncovered)
	}
}

func TestLintOnRealExtraction(t *testing.T) {
	policyText := `# Acme Privacy Policy

Acme ("we") explains its practices here.

## Sharing

We do not share your location data.

If you enable location services, we share your location data with mapping services.`
	e := extract.New(llm.NewSim())
	ex, err := e.ExtractPolicy(context.Background(), policyText)
	if err != nil {
		t.Fatal(err)
	}
	rep := Lint(ex.Practices)
	if len(rep.Apparent) == 0 {
		t.Fatalf("no contradiction found over %d practices: %+v", len(ex.Practices), ex.Practices)
	}
	if rep.Exceptions == 0 {
		t.Errorf("exception pattern not recognized: %+v", rep.Apparent)
	}
}

func TestAnalyzeFleet(t *testing.T) {
	policies := []string{
		"# AppOne Privacy Policy\n\nAppOne (\"we\") explains.\n\nWe collect your gps location. We share your email address with partners. We do not sell your browsing history.\n",
		"# AppTwo Privacy Policy\n\nAppTwo (\"we\") explains.\n\nWe collect your device identifier and credit card number.\n",
		"# AppThree Privacy Policy\n\nAppThree (\"we\") explains.\n\nThis app stores nothing interesting in this sentence.\n",
	}
	stats, err := AnalyzeFleet(context.Background(), policies)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Policies != 3 {
		t.Fatalf("policies = %d", stats.Policies)
	}
	if got := stats.CollectRates["location"]; got < 0.3 || got > 0.34 {
		t.Errorf("location collect rate = %v, want 1/3", got)
	}
	if got := stats.ShareRates["email"]; got < 0.3 || got > 0.34 {
		t.Errorf("email share rate = %v, want 1/3", got)
	}
	if got := stats.DenySaleRate; got < 0.3 || got > 0.34 {
		t.Errorf("deny-sale rate = %v, want 1/3", got)
	}
	top := stats.TopCategories()
	if len(top) == 0 {
		t.Fatal("no top categories")
	}
}

func TestFleetCategory(t *testing.T) {
	cases := map[string]string{
		"gps location":        "location",
		"email address":       "email",
		"credit card number":  "financial",
		"voiceprint":          "biometric",
		"watch history":       "history",
		"device identifier":   "device",
		"something unrelated": "",
	}
	for in, want := range cases {
		if got := fleetCategory(in); got != want {
			t.Errorf("fleetCategory(%q) = %q, want %q", in, got, want)
		}
	}
}
