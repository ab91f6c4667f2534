package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestGaugeSetAddConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Add(1)
			g.Add(-1)
			g.Add(0.5)
		}()
	}
	wg.Wait()
	if got := g.Value(); math.Abs(got-15) > 1e-9 {
		t.Errorf("gauge = %v, want 15", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("peak")
	g.SetMax(3)
	g.SetMax(1) // lower value never wins
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			g.SetMax(v)
		}(float64(i))
	}
	wg.Wait()
	if got := g.Value(); got != 64 {
		t.Errorf("concurrent SetMax = %v, want 64", got)
	}
	var nilG *Gauge
	nilG.SetMax(1) // must not panic
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // bucket 0.01
	h.Observe(0.01)  // le is inclusive: bucket 0.01
	h.Observe(0.5)   // bucket 1
	h.Observe(3)     // +Inf
	snap := h.snapshot()
	if snap.Count != 4 {
		t.Errorf("count = %d, want 4", snap.Count)
	}
	if math.Abs(snap.Sum-3.515) > 1e-9 {
		t.Errorf("sum = %v, want 3.515", snap.Sum)
	}
	wantCum := []uint64{2, 2, 3, 4}
	for i, bk := range snap.Buckets {
		if bk.Count != wantCum[i] {
			t.Errorf("bucket %d (le %v) = %d, want %d", i, bk.UpperBound, bk.Count, wantCum[i])
		}
	}
	if !math.IsInf(snap.Buckets[len(snap.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket should be +Inf")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", TimeBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 1600 {
		t.Errorf("count = %d, want 1600", h.Count())
	}
	if math.Abs(h.Sum()-1.6) > 1e-6 {
		t.Errorf("sum = %v, want 1.6", h.Sum())
	}
}

func TestSameIdentitySameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "phase", "solve")
	b := r.Counter("x_total", "phase", "solve")
	if a != b {
		t.Error("same (name, labels) must return the same counter")
	}
	c := r.Counter("x_total", "phase", "translate")
	if a == c {
		t.Error("different labels must return distinct counters")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	if id := string(metricID(nil, "m", []string{"b", "2", "a", "1"})); id != `m{a="1",b="2"}` {
		t.Errorf("labels not canonicalized: %s", id)
	}
	r := NewRegistry()
	a := r.Counter("m_total", "b", "2", "a", "1")
	b := r.Counter("m_total", "a", "1", "b", "2")
	if a != b {
		t.Error("label order must not change identity")
	}
}

func TestKindMismatchReturnsNilNoop(t *testing.T) {
	r := NewRegistry()
	r.Counter("mixed")
	g := r.Gauge("mixed")
	if g != nil {
		t.Error("kind mismatch should return a nil (no-op) handle")
	}
	g.Set(1) // must not panic
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("c").Set(1)
	r.Histogram("d", TimeBuckets).Observe(0.1)
	r.CounterFunc("e", func() float64 { return 1 })
	r.GaugeFunc("f", func() float64 { return 1 })
	r.SetHelp("a", "help")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
	var c *Counter
	c.Inc()
	var h *Histogram
	h.ObserveSince(time.Now())
	var g *Gauge
	g.Add(1)
	_ = snap.Table()
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("q_total", "queries served")
	r.Counter("q_total", "verdict", "VALID").Add(3)
	r.Counter("q_total", "verdict", "INVALID").Add(1)
	r.Gauge("depth").Set(2.5)
	r.Histogram("solve_seconds", []float64{0.1, 1}).Observe(0.05)
	r.CounterFunc("cache_hits_total", func() float64 { return 7 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP q_total queries served",
		"# TYPE q_total counter",
		`q_total{verdict="VALID"} 3`,
		`q_total{verdict="INVALID"} 1`,
		"# TYPE depth gauge",
		"depth 2.5",
		"# TYPE solve_seconds histogram",
		`solve_seconds_bucket{le="0.1"} 1`,
		`solve_seconds_bucket{le="+Inf"} 1`,
		"solve_seconds_sum 0.05",
		"solve_seconds_count 1",
		"cache_hits_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// TYPE lines appear exactly once per family.
	if strings.Count(out, "# TYPE q_total") != 1 {
		t.Error("TYPE emitted more than once for a family")
	}
}

func TestHistogramLabelsRenderBucketsInsideBraces(t *testing.T) {
	r := NewRegistry()
	r.Histogram("phase_seconds", []float64{1}, "phase", "solve").Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`phase_seconds_bucket{phase="solve",le="1"} 1`,
		`phase_seconds_bucket{phase="solve",le="+Inf"} 1`,
		`phase_seconds_sum{phase="solve"} 0.5`,
		`phase_seconds_count{phase="solve"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(5)
	r.Gauge("g").Set(1.5)
	r.Histogram("h_seconds", []float64{1}).Observe(0.2)
	r.GaugeFunc("gf", func() float64 { return 9 })
	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c_total"] != 5 || back.Gauges["g"] != 1.5 || back.Gauges["gf"] != 9 {
		t.Errorf("round trip lost values: %+v", back)
	}
	if back.Histograms["h_seconds"].Count != 1 {
		t.Errorf("round trip lost histogram: %+v", back.Histograms)
	}
}

func TestTableRendersPhases(t *testing.T) {
	r := NewRegistry()
	r.Histogram("phase_seconds", TimeBuckets, "phase", "solve").Observe(0.25)
	r.Histogram("phase_seconds", TimeBuckets, "phase", "translate").Observe(0.001)
	r.Counter("verdicts_total", "verdict", "VALID").Add(2)
	out := r.Snapshot().Table()
	for _, want := range []string{
		`phase_seconds{phase="solve"}`,
		`phase_seconds{phase="translate"}`,
		`verdicts_total{verdict="VALID"}`,
		"stage", "count", "total", "mean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering: solve sorts before translate.
	if strings.Index(out, "solve") > strings.Index(out, "translate") {
		t.Error("table rows not sorted")
	}
}

func TestSnapshotConcurrentWithWrites(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("w_total", "worker", string(rune('a'+g))).Inc()
				r.Histogram("w_seconds", TimeBuckets).Observe(0.001)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
		var b strings.Builder
		_ = r.WritePrometheus(&b)
	}
	close(stop)
	wg.Wait()
}

// referenceMetricID is the fmt-based identity metricID must match byte
// for byte: pairs sorted by key with sort.Slice, values formatted with %q.
func referenceMetricID(name string, labels []string) string {
	if len(labels) < 2 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// TestMetricIDMatchesReference: on random names and up to six label pairs
// (repeated keys, odd trailing keys, values with quotes, backslashes,
// newlines, control bytes, non-ASCII and invalid UTF-8), metricID writes
// the reference's bytes.
func TestMetricIDMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	parts := []string{"phase", "code", "a", "b", "verdict", "", `"`, `\`, "\n", "\t", "\x00",
		"é", "日本", "\xff", "solve", `x"y\z`, "200", "le", "+Inf"}
	for iter := 0; iter < 20000; iter++ {
		labels := make([]string, r.Intn(14))
		for i := range labels {
			labels[i] = parts[r.Intn(len(parts))]
			if r.Intn(3) == 0 {
				labels[i] += parts[r.Intn(len(parts))]
			}
		}
		name := parts[r.Intn(len(parts))] + "_total"
		want := referenceMetricID(name, labels)
		if got := string(metricID(nil, name, labels)); got != want {
			t.Fatalf("metricID(%q, %q) = %q, want %q", name, labels, got, want)
		}
		if got := string(metricID(make([]byte, 0, 3), name, labels)); got != want {
			t.Fatalf("metricID into a short buffer (%q, %q) = %q, want %q", name, labels, got, want)
		}
	}
}

// TestLookupOfExistingMetricAllocatesNothing: once registered, looking up
// a labelled counter, histogram or gauge allocates nothing.
func TestLookupOfExistingMetricAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	phase := "translate"
	r.Counter("q_total", "verdict", "VALID")
	r.Histogram("q_seconds", TimeBuckets, "phase", phase)
	r.Gauge("q_gauge", "code", "200", "route", "/v1/query")
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("q_total", "verdict", "VALID").Inc()
		r.Histogram("q_seconds", TimeBuckets, "phase", phase).Observe(0.001)
		r.Gauge("q_gauge", "route", "/v1/query", "code", "200").Set(1)
	})
	if allocs != 0 {
		t.Errorf("lookups of existing metrics made %v allocations, want 0", allocs)
	}
}
