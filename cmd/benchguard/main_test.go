package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// Two rounds of one package's output as the guard reads it: results
// interleaved with the header, a log line and the trailer, and
// sub-benchmark names that end in digits of their own.
const twoRounds = `goos: linux
goarch: amd64
pkg: github.com/privacy-quagmire/quagmire
cpu: Intel(R) Xeon(R) Processor
BenchmarkStageBreakdown-2                	       3	   2201617 ns/op	     24196 ns/solve	 1110976 B/op	   19978 allocs/op
BenchmarkSMTClauseSweep/edges-2-2        	       3	    431989 ns/op	        42.00 clauses	  238584 B/op	    4321 allocs/op
BenchmarkSMTClauseSweep/edges-25-2       	       3	  22079499 ns/op	     20049 clauses	10808562 B/op	  185696 allocs/op
    bench_test.go:140: a benchmark's log line
PASS
goos: linux
BenchmarkStageBreakdown-2                	       3	   2301617 ns/op	     25196 ns/solve	 1110980 B/op	   19979 allocs/op
BenchmarkSMTClauseSweep/edges-2-2        	       3	    441989 ns/op	        42.00 clauses	  238584 B/op	    4322 allocs/op
BenchmarkSMTClauseSweep/edges-25-2       	       3	  23079499 ns/op	     20049 clauses	10808562 B/op	  185697 allocs/op
PASS
`

func TestParse(t *testing.T) {
	s := samples{}
	if err := parse(twoRounds, 2, s); err != nil {
		t.Fatal(err)
	}
	want := samples{
		"BenchmarkStageBreakdown": {
			"ns/op": {2201617, 2301617}, "ns/solve": {24196, 25196},
			"B/op": {1110976, 1110980}, "allocs/op": {19978, 19979},
		},
		"BenchmarkSMTClauseSweep/edges-2": {
			"ns/op": {431989, 441989}, "clauses": {42, 42},
			"B/op": {238584, 238584}, "allocs/op": {4321, 4322},
		},
		"BenchmarkSMTClauseSweep/edges-25": {
			"ns/op": {22079499, 23079499}, "clauses": {20049, 20049},
			"B/op": {10808562, 10808562}, "allocs/op": {185696, 185697},
		},
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("parse:\ngot  %v\nwant %v", s, want)
	}
}

// TestParseCutsOnlyTheProcsSuffix: with GOMAXPROCS 1 no suffix is printed,
// so edges-25 is edges-25; with GOMAXPROCS 25, edges-2-25 is edges-2.
func TestParseCutsOnlyTheProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		procs      int
		line, name string
	}{
		{1, "BenchmarkSMTClauseSweep/edges-25 3 100 ns/op", "BenchmarkSMTClauseSweep/edges-25"},
		{25, "BenchmarkSMTClauseSweep/edges-2-25 3 100 ns/op", "BenchmarkSMTClauseSweep/edges-2"},
		{25, "BenchmarkSMTClauseSweep/edges-25-25 3 100 ns/op", "BenchmarkSMTClauseSweep/edges-25"},
		{2, "BenchmarkCorpusIngest/workers=1-2 3 100 ns/op", "BenchmarkCorpusIngest/workers=1"},
	} {
		s := samples{}
		if err := parse(tc.line, tc.procs, s); err != nil {
			t.Fatal(err)
		}
		if got := s[tc.name]["ns/op"]; len(got) != 1 || got[0] != 100 {
			t.Errorf("procs %d, %q: parsed %v, want %s", tc.procs, tc.line, s, tc.name)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 3.25, 5.5, 7.75},
		{[]float64{5, 1, 3}, 2, 3, 4},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(med-tc.med) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestJudge: a row fails when head's median exceeds base's by more than
// 20%, for a time unit and a count unit alike; a row head lacks fails and
// a row the base lacks passes as new.
func TestJudge(t *testing.T) {
	vals := func(vs ...float64) []float64 { return vs }
	base := samples{
		"BenchmarkA":    {"ns/op": vals(100, 90, 110, 100), "allocs/op": vals(1000, 1000, 1000, 1000)},
		"BenchmarkB":    {"ns/op": vals(100, 100, 100, 100), "allocs/op": vals(1000, 1000, 1000, 1000)},
		"BenchmarkGone": {"ns/op": vals(1, 1, 1, 1)},
	}
	head := samples{
		"BenchmarkA":   {"ns/op": vals(119, 80, 130, 119), "allocs/op": vals(1200, 1200, 1200, 1200)},
		"BenchmarkB":   {"ns/op": vals(121, 121, 90, 130), "allocs/op": vals(1201, 1201, 1201, 1201)},
		"BenchmarkNew": {"ns/op": vals(5, 5, 5, 5)},
	}
	rows := []row{
		{".", "BenchmarkA", "ns/op"},
		{".", "BenchmarkA", "allocs/op"},
		{".", "BenchmarkB", "ns/op"},
		{".", "BenchmarkB", "allocs/op"},
		{".", "BenchmarkGone", "ns/op"},
		{".", "BenchmarkNew", "ns/op"},
	}
	want := []struct {
		status string
		ratio  float64
		worse  int
	}{
		{"ok", 1.19, 3},
		{"ok", 1.20, 4},
		{"REGRESSION", 1.21, 3},
		{"REGRESSION", 1.201, 4},
		{"MISSING", 0, 0},
		{"new", 0, 0},
	}
	vs := judge(rows, base, head)
	for i, v := range vs {
		w := want[i]
		if v.status != w.status || math.Abs(v.ratio-w.ratio) > 1e-9 || v.worse != w.worse {
			t.Errorf("%s %s: %s x%.4f worse %d, want %s x%.4f worse %d",
				v.bench, v.unit, v.status, v.ratio, v.worse, w.status, w.ratio, w.worse)
		}
	}

	var out strings.Builder
	if !report(&out, vs) {
		t.Error("report passed a table with a regression and a missing row")
	}
	if !strings.Contains(out.String(), "benchguard: FAIL (worst x1.210: BenchmarkB ns/op)") {
		t.Errorf("report does not name the worst row:\n%s", out.String())
	}
	out.Reset()
	if report(&out, judge(rows[:2], base, head)) || report(&out, judge(rows[5:], base, head)) {
		t.Errorf("report failed passing rows:\n%s", out.String())
	}
}

func TestPattern(t *testing.T) {
	got := pattern([]string{"BenchmarkSMTClauseSweep/edges-25", "BenchmarkStageBreakdown", "BenchmarkRecoveryBoot/lazy/policies-8"})
	want := "^BenchmarkSMTClauseSweep$/^edges-25$|^BenchmarkStageBreakdown$|^BenchmarkRecoveryBoot$/^lazy$/^policies-8$"
	if got != want {
		t.Errorf("pattern = %q, want %q", got, want)
	}
}

// TestGuardedRows: 21 distinct rows, each guarded once.
func TestGuardedRows(t *testing.T) {
	seen := map[row]bool{}
	for _, r := range guarded {
		if seen[r] {
			t.Errorf("%s %s guarded twice", r.bench, r.unit)
		}
		seen[r] = true
	}
	if len(seen) != 21 {
		t.Errorf("%d guarded rows, want 21", len(seen))
	}
}
