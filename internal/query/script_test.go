package query

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/smtlib"
)

// checkWriter encodes a question over edges with goals by the writer and
// by the reference path and reports the first difference: the script
// text, the reported formula and its size, the placeholders, and the
// problem the solver receives against what the text decodes to. Both
// sides must fail alike.
func checkWriter(t *testing.T, e *Engine, q *resolved, edges []*graph.Edge, goals goalsFunc) {
	t.Helper()
	got, gerr := e.encode(q, edges, goals)
	want, werr := referenceEncode(e, q, edges, goals)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("writer error %v, reference error %v", gerr, werr)
	}
	if gerr != nil {
		return
	}
	if got.script != want.script {
		t.Fatalf("script differs\nwriter:\n%s\nreference:\n%s", got.script, want.script)
	}
	if formula, size := got.formula(); formula != want.formula || size != want.formulaSize {
		t.Fatalf("formula (size %d) %s\nreference (size %d) %s", size, formula, want.formulaSize, want.formula)
	}
	if !reflect.DeepEqual(got.placeholders, want.placeholders) {
		t.Fatalf("placeholders %q, reference %q", got.placeholders, want.placeholders)
	}
	parsed, err := smtlib.DecodeScript(got.script)
	if err != nil {
		t.Fatalf("script does not decode: %v\n%s", err, got.script)
	}
	if prob := got.problem(); !reflect.DeepEqual(prob, parsed) {
		t.Fatalf("problem differs from the script's\nbuilt:   %+v\ndecoded: %+v\n%s", prob, parsed, got.script)
	}
}

// TestWriterMatchesReference is the differential test for writing each
// question's script in one pass. Over the question grid of 50 generated
// policies and the contradiction fixture, under the default options, A1
// (NoHierarchy), A3 (SimplifyFOL off) and E3 (WholePolicy), the writer
// agrees with the reference path (see checkWriter) for Ask's, Explore's
// and Explain's goal checks, and for Explain's edge subsets (each
// subgraph edge dropped in turn; not under E3, where the subgraph is
// every edge and Explain's deletion loop is not run).
func TestWriterMatchesReference(t *testing.T) {
	ctx := context.Background()
	engines := append(corpusEngines(t, 50, 13), engineFor(t, contradictionPolicy))
	options := []struct {
		name string
		set  func(*Engine)
	}{
		{"default", func(*Engine) {}},
		{"A1", func(e *Engine) { e.NoHierarchy = true }},
		{"A3", func(e *Engine) { e.SimplifyFOL = false }},
		{"E3", func(e *Engine) { e.WholePolicy = true }},
	}
	questions, scripts := 0, 0
	for i, e := range engines {
		texts := fixtureQuestions
		if i < len(engines)-1 {
			texts = questionGrid(engines[:len(engines)-1], i, 3)
		}
		for _, text := range texts {
			p, err := e.parseQuery(ctx, text)
			if err != nil {
				continue // the extractor found no flow
			}
			questions++
			for _, opt := range options {
				noHierarchy, simplify, whole := e.NoHierarchy, e.SimplifyFOL, e.WholePolicy
				opt.set(e)
				q, err := e.resolve(ctx, p, map[string]string{})
				if err != nil {
					t.Fatal(err)
				}
				for _, goals := range []goalsFunc{askGoals, scenarioGoals, mainGoal} {
					checkWriter(t, e, q, q.edges, goals)
					scripts++
				}
				for j := 0; j < len(q.edges) && !e.WholePolicy; j++ {
					subset := append(append([]*graph.Edge(nil), q.edges[:j]...), q.edges[j+1:]...)
					checkWriter(t, e, q, subset, mainGoal)
					scripts++
				}
				e.NoHierarchy, e.SimplifyFOL, e.WholePolicy = noHierarchy, simplify, whole
			}
		}
	}
	t.Logf("%d questions, %d scripts", questions, scripts)
	if questions < 5*len(engines) {
		t.Errorf("only %d questions asked", questions)
	}
}

// fuzzTerms are terms the writer must sanitize and declare like the
// reference: reserved words, the goal's bound variable names, digit-led,
// empty, mixed-case and non-ASCII terms (the Kelvin sign lowercases to
// k), and terms that sanitize alike.
var fuzzTerms = []string{
	"acme", "Acme", "share", "email address", "e-mail address", "email  address",
	"d", "o", "x", "and", "not", "true", "exists", "practice", "subtype", "cond_x",
	"3rd party", "", "??", "Voice-Enabled", "Kelvin", "ſtore", "naïve data", "user's data",
}

// FuzzWriterMatchesReference checks the writer against the reference path
// (see checkWriter) on random subgraphs: edges over the fuzzed terms and
// fuzzTerms, allows and denies, conditional statements, repeated edges
// and complementary pairs, a random data hierarchy over the terms, every
// goal set and option combination.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add(int64(1), "location data\nadvertiser")
	f.Add(int64(2), "D\nO")
	f.Add(int64(3), "1\n2\n\xff")
	f.Add(int64(163), "0") // repeats a subtype fact: data terms that sanitize alike
	f.Fuzz(func(t *testing.T, seed int64, extra string) {
		r := rand.New(rand.NewSource(seed))
		terms := append(append([]string(nil), fuzzTerms...), strings.Split(extra, "\n")...)
		pick := func() string { return terms[r.Intn(len(terms))] }
		maybe := func() string {
			if r.Intn(3) == 0 {
				return ""
			}
			return pick()
		}

		h := graph.NewHierarchy("data")
		placed := []string{"data"}
		for _, term := range terms {
			if r.Intn(3) > 0 && h.Add(placed[r.Intn(len(placed))], term) == nil {
				placed = append(placed, term)
			}
		}
		var edges []*graph.Edge
		for n := r.Intn(14); len(edges) < n; {
			ed := graph.Edge{From: pick(), Label: pick(), To: pick(), Other: maybe(), Condition: maybe()}
			if r.Intn(2) == 0 {
				ed.Permission = "deny"
			}
			if len(edges) > 0 && r.Intn(4) == 0 {
				ed = *edges[r.Intn(len(edges))] // repeat it, or make its complement
				if r.Intn(2) == 0 {
					ed.Permission = map[string]string{"deny": "allow", "allow": "deny", "": "deny"}[ed.Permission]
				}
			}
			edges = append(edges, &ed)
		}
		e := &Engine{
			KG:          &kg.KnowledgeGraph{ED: graph.New(), DataH: h},
			SimplifyFOL: r.Intn(4) > 0,
			NoHierarchy: r.Intn(4) == 0,
		}
		q := &resolved{actor: pick(), action: pick(), data: pick(), other: maybe()}
		goals := []goalsFunc{askGoals, scenarioGoals, mainGoal}[r.Intn(3)]
		checkWriter(t, e, q, edges, goals)
	})
}

// FuzzSymMatchesReference checks that sym sanitizes as it always has and
// that every symbol it returns prints unquoted, so the writer can write
// it as it is.
func FuzzSymMatchesReference(f *testing.F) {
	for _, term := range fuzzTerms {
		f.Add(term)
	}
	f.Fuzz(func(t *testing.T, term string) {
		got := sym(term)
		if want := referenceSym(term); got != want {
			t.Fatalf("sym(%q) = %q, reference %q", term, got, want)
		}
		if printed := (&smtlib.SExpr{Atom: got}).String(); printed != got {
			t.Fatalf("sym(%q) = %q prints as %q", term, got, printed)
		}
		if cond := "cond_" + got; (&smtlib.SExpr{Atom: cond}).String() != cond {
			t.Fatalf("placeholder %q prints quoted", cond)
		}
	})
}
