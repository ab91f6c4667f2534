package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

func TestTable2Decomposition(t *testing.T) {
	rows, err := Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Row 1: the compound when-clause statement yields multiple edges
	// including user activities from inside the condition clause.
	if len(rows[0].Edges) < 5 {
		t.Errorf("row 1 edges = %d (%v), want >= 5", len(rows[0].Edges), rows[0].Edges)
	}
	// Row 2: enumerated profile statement yields ten distinct edges,
	// matching the paper exactly.
	if len(rows[1].Edges) != 10 {
		t.Errorf("row 2 edges = %d (%v), want 10", len(rows[1].Edges), rows[1].Edges)
	}
	// Row 3: contact-finding yields the causal choose edge plus
	// access+collect over the contact data types.
	if len(rows[2].Edges) < 6 {
		t.Errorf("row 3 edges = %d (%v), want >= 6", len(rows[2].Edges), rows[2].Edges)
	}
	joined := strings.Join(rows[2].Edges, " ")
	for _, want := range []string{"choose to find", "access", "collect", "phone number of contacts"} {
		if !strings.Contains(joined, want) {
			t.Errorf("row 3 missing %q: %v", want, rows[2].Edges)
		}
	}
	if RenderDecomp(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestTable3Decomposition(t *testing.T) {
	rows, err := Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Camera/voice features: multiple collection edges.
	if len(rows[0].Edges) < 4 {
		t.Errorf("camera row edges = %d (%v)", len(rows[0].Edges), rows[0].Edges)
	}
	// Interaction tracking: view/interact/engage as distinct actions.
	joined := strings.Join(rows[1].Edges, " ")
	for _, want := range []string{"view", "interact with", "engage with"} {
		if !strings.Contains(joined, want) {
			t.Errorf("interaction row missing %q: %v", want, rows[1].Edges)
		}
	}
	// Financial ecosystem: payment enumeration plus process/preserve.
	joined = strings.Join(rows[2].Edges, " ")
	for _, want := range []string{"process", "preserve", "truncated credit card number"} {
		if !strings.Contains(joined, want) {
			t.Errorf("financial row missing %q: %v", want, rows[2].Edges)
		}
	}
	if len(rows[2].Edges) < 6 {
		t.Errorf("financial row edges = %d, want >= 6", len(rows[2].Edges))
	}
}

func TestSimilarityClaims(t *testing.T) {
	rows := SimilarityClaims()
	byPair := map[string]float64{}
	for _, r := range rows {
		byPair[r.A+"|"+r.B] = r.Score
	}
	// Near-identical pair scores very high (paper: 0.999).
	if byPair["email address|email addresses"] < 0.9 {
		t.Errorf("plural-variant similarity = %v", byPair["email address|email addresses"])
	}
	// Related pairs beat the unrelated control.
	control := byPair["email address|credit card number"]
	for _, pair := range []string{"email address|email", "location data|location information", "location data|gps location"} {
		if byPair[pair] <= control {
			t.Errorf("%s (%v) should beat control (%v)", pair, byPair[pair], control)
		}
	}
	if !strings.Contains(RenderSimilarity(rows), "email") {
		t.Error("rendering broken")
	}
}

func TestSMTSweepShape(t *testing.T) {
	limits := smt.Limits{MaxInstantiations: 3000, MaxSatSteps: 200000, MaxRounds: 2}
	rows := SMTSweep([]int{2, 5, 100, 200}, limits)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Small encodings solve (the goal follows: unsat).
	if rows[0].Status == smt.Unknown {
		t.Errorf("tiny encoding unknown: %+v", rows[0])
	}
	// Large encodings exhaust the budget — the paper's timeout.
	last := rows[len(rows)-1]
	if last.Status != smt.Unknown {
		t.Errorf("large encoding should be resource-out, got %s (%d clauses)", last.Status, last.Clauses)
	}
	if last.Reason == "" {
		t.Error("unknown without reason")
	}
	// Clause counts grow with edges.
	if rows[3].Clauses <= rows[0].Clauses {
		t.Errorf("clauses did not grow: %d vs %d", rows[3].Clauses, rows[0].Clauses)
	}
	if RenderSMT(rows) == "" {
		t.Error("rendering broken")
	}
}

func TestVerdictsMapping(t *testing.T) {
	rows, err := Verdicts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Want != r.Got {
			t.Errorf("verdict mismatch for %q: want %s got %s", r.Question, r.Want, r.Got)
		}
	}
	// The conditional case surfaces its placeholder.
	foundConditional := false
	for _, r := range rows {
		if len(r.ConditionalOn) > 0 {
			foundConditional = true
		}
	}
	if !foundConditional {
		t.Error("no conditionally valid verdict in the set")
	}
	if !strings.Contains(RenderVerdicts(rows), "VALID") {
		t.Error("rendering broken")
	}
}

func TestIncrementalSweepShape(t *testing.T) {
	rows, err := IncrementalSweep(context.Background(), []float64{0.05, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LLMCallsIncremental >= r.LLMCallsFull {
			t.Errorf("incremental (%d) not cheaper than full (%d) at %.0f%%",
				r.LLMCallsIncremental, r.LLMCallsFull, r.EditedFraction*100)
		}
	}
	// More edits cost more.
	if rows[1].LLMCallsIncremental <= rows[0].LLMCallsIncremental {
		t.Errorf("cost not monotone in edit fraction: %+v", rows)
	}
	if RenderIncremental(rows) == "" {
		t.Error("rendering broken")
	}
}

func TestContradictionsShape(t *testing.T) {
	sum, err := Contradictions(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Policies != 12 {
		t.Fatalf("policies = %d", sum.Policies)
	}
	if sum.Apparent == 0 {
		t.Error("no apparent contradictions across the fleet")
	}
	if sum.Apparent != sum.Exceptions+sum.Genuine {
		t.Errorf("accounting: %d != %d + %d", sum.Apparent, sum.Exceptions, sum.Genuine)
	}
	if !strings.Contains(RenderLint(sum), "14.2%") {
		t.Error("rendering missing paper reference")
	}
}

func TestPaperTable1Embedded(t *testing.T) {
	rows := PaperTable1()
	if len(rows) != 2 || rows[0].Edges != 974 || rows[1].Edges != 3801 {
		t.Errorf("paper rows = %+v", rows)
	}
	if !strings.Contains(RenderTable1(rows), "974") {
		t.Error("rendering broken")
	}
}

func TestVerdictTypeReexported(t *testing.T) {
	var v query.Verdict = query.Valid
	if v != "VALID" {
		t.Error("verdict constant drift")
	}
}

func TestScalingSweepSmall(t *testing.T) {
	rows, err := ScalingSweep(context.Background(), []int{20, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Words <= rows[0].Words {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Edges == 0 || rows[0].Segments == 0 {
		t.Errorf("empty extraction: %+v", rows[0])
	}
	out := RenderScaling(rows)
	if !strings.Contains(out, "µs/word") {
		t.Errorf("rendering: %s", out)
	}
}

func TestTable1SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale experiment")
	}
	rows, err := Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Policy != "TikTak" || rows[1].Policy != "MetaBook" {
		t.Errorf("row order: %+v", rows)
	}
	if rows[1].Edges < 2*rows[0].Edges {
		t.Errorf("MetaBook (%d) not ≫ TikTak (%d)", rows[1].Edges, rows[0].Edges)
	}
}

func TestWholePolicyComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale experiment")
	}
	rows, err := WholePolicyComparison(context.Background(), smt.Limits{MaxInstantiations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].FormulaSize <= rows[0].FormulaSize {
		t.Errorf("whole-policy (%d) not larger than subgraph (%d)", rows[1].FormulaSize, rows[0].FormulaSize)
	}
	if RenderWholePolicy(rows) == "" {
		t.Error("rendering broken")
	}
}

func TestSMTLIBValidityBothPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale experiment")
	}
	lines, err := SMTLIBValidity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || !strings.Contains(lines[0], "valid SMT-LIB") {
		t.Errorf("lines = %v", lines)
	}
}

// TestEncodingComparison pins E21's §4.4 reproduction rows: with the
// paper's transitivity axiom under full grounding, TikTak's whole-policy
// question and MetaBook's subgraph question stop at the instantiation
// budget; so does MetaBook's whole-policy question with closure facts
// under full grounding. The served encoding and strategy decide all of
// them, and triggers (ablation A4) never claim sat on quantified input.
func TestEncodingComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale experiment")
	}
	ctx := context.Background()
	const budget = "model found but quantifier instantiation incomplete"
	find := func(rows []EncodingRow, policy, encoding string) EncodingRow {
		t.Helper()
		for _, r := range rows {
			if r.Policy == policy && r.Encoding == encoding {
				return r
			}
		}
		t.Fatalf("no %s row for %s in %+v", encoding, policy, rows)
		return EncodingRow{}
	}
	check := func(r EncodingRow, want query.Verdict, reason string) {
		t.Helper()
		if r.Verdict != want || r.Reason != reason {
			t.Errorf("%s %s %s: %s (%q), want %s (%q)", r.Policy, r.Mode, r.Encoding, r.Verdict, r.Reason, want, reason)
		}
	}

	whole, err := EncodingComparison(ctx, true, smt.Limits{MaxInstantiations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	check(find(whole, "TikTak", "paper axioms, full grounding"), query.Unknown, budget)
	check(find(whole, "TikTak", "paper axioms, triggers (A4)"), query.Unknown, budget)
	served := find(whole, "TikTak", "closure facts (served)")
	check(served, query.Invalid, "")
	if paper := find(whole, "TikTak", "paper axioms, full grounding"); served.Instantiations >= paper.Instantiations {
		t.Errorf("TikTak whole-policy: closure facts ground %d instances, paper axioms %d", served.Instantiations, paper.Instantiations)
	}
	check(find(whole, "MetaBook", "closure facts, full grounding"), query.Unknown, budget)
	check(find(whole, "MetaBook", "closure facts (served)"), query.Valid, "")

	sub, err := EncodingComparison(ctx, false, smt.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	check(find(sub, "MetaBook", "paper axioms, full grounding"), query.Unknown, budget)
	check(find(sub, "MetaBook", "closure facts, full grounding"), query.Valid, "")
	check(find(sub, "MetaBook", "closure facts (served)"), query.Valid, "")
	check(find(sub, "TikTak", "closure facts (served)"), query.Invalid, "")
	if RenderEncodings(sub) == "" {
		t.Error("rendering broken")
	}
}
