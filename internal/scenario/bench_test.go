package scenario

import (
	"bytes"
	"context"
	"testing"
)

// BenchmarkScenarioSuite measures a full check-run unit of work: compile the
// fixture suite, execute it against the Mini engine, and render
// both reports. This is the per-suite cost a CI scenario gate pays, guarded
// by cmd/benchguard.
func BenchmarkScenarioSuite(b *testing.B) {
	eng := miniEngine(b)
	parsed, err := Parse("bench.qq", miniSuiteSrc)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := Compile(parsed)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Execute(ctx, eng, cs, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK() {
			b.Fatalf("suite went red:\n%s", RenderText([]*SuiteResult{res}))
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, NewReport([]*SuiteResult{res})); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if err := WriteJUnit(&buf, []*SuiteResult{res}); err != nil {
			b.Fatal(err)
		}
	}
}
