// Package obs is the pipeline's observability layer: named counters,
// gauges and fixed-bucket latency histograms backed by atomic (and, for
// contended hot paths, sharded) implementations, collected in a Registry
// that renders Prometheus text format, a JSON-friendly Snapshot for
// benchmarks, and a human-readable per-phase table for the CLI.
//
// All metric methods are safe for concurrent use and are no-ops on nil
// receivers, so instrumented code never needs to guard against a missing
// registry:
//
//	var reg *obs.Registry // possibly nil
//	reg.Counter("quagmire_queries_total").Inc()
//
// Metric identity is the family name plus an optional ordered list of
// label key/value pairs; the same (name, labels) always returns the same
// metric instance.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Nil-safe.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// counterShard is one cache-line-padded slot of a ShardedCounter.
type counterShard struct {
	n atomic.Uint64
	_ [56]byte
}

// ShardedCounter is a counter for contended hot paths: increments go to
// per-goroutine-locality shards handed out by a sync.Pool (which is
// per-P under the hood), so concurrent writers rarely touch the same
// cache line. Reads sum all shards and are accordingly slower — use
// Counter unless the write path is genuinely hot.
type ShardedCounter struct {
	mu     sync.Mutex
	shards []*counterShard
	pool   sync.Pool
	init   sync.Once
}

func (c *ShardedCounter) initPool() {
	c.init.Do(func() {
		c.pool.New = func() any {
			s := &counterShard{}
			c.mu.Lock()
			c.shards = append(c.shards, s)
			c.mu.Unlock()
			return s
		}
	})
}

// Inc adds one.
func (c *ShardedCounter) Inc() { c.Add(1) }

// Add adds n. Nil-safe.
func (c *ShardedCounter) Add(n uint64) {
	if c == nil {
		return
	}
	c.initPool()
	s := c.pool.Get().(*counterShard)
	s.n.Add(n)
	c.pool.Put(s)
}

// Value sums all shards. Nil-safe.
func (c *ShardedCounter) Value() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	shards := c.shards
	c.mu.Unlock()
	var total uint64
	for _, s := range shards {
		total += s.n.Load()
	}
	return total
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop). Nil-safe.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v when v exceeds the current value (CAS
// loop) — a monotonic high-watermark within the process, used for peak
// in-flight and queue-depth tracking. Nil-safe.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value. Nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// TimeBuckets are the default latency bucket upper bounds in seconds,
// spanning microsecond-scale cache lookups to multi-second solver
// resource-outs.
var TimeBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets are generic magnitude buckets for non-time observations
// (formula sizes, instantiation counts).
var CountBuckets = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000}

// Histogram is a fixed-bucket histogram with atomic per-bucket counters.
// Buckets are cumulative-rendered in Prometheus format; an implicit +Inf
// bucket catches everything above the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds. Nil-safe.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the elapsed time since start in seconds. Nil-safe.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Count returns the number of observations. Nil-safe.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values. Nil-safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper bound; +Inf for the last bucket.
	UpperBound float64 `json:"-"`
	// Count is the cumulative count of observations <= UpperBound.
	Count uint64 `json:"count"`
}

// bucketJSON is the wire form: the bound rendered as a Prometheus-style
// le string, since JSON has no +Inf literal.
type bucketJSON struct {
	UpperBound string `json:"le"`
	Count      uint64 `json:"count"`
}

// MarshalJSON renders the upper bound as a string ("+Inf" for the last
// bucket) so snapshots survive encoding/json.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = formatValue(b.UpperBound)
	}
	return json.Marshal(bucketJSON{UpperBound: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.UpperBound == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else if _, err := fmt.Sscanf(w.UpperBound, "%g", &b.UpperBound); err != nil {
		return err
	}
	b.Count = w.Count
	return nil
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.Sum()}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: bound, Count: cum})
	}
	return s
}

// metric kinds.
const (
	kindCounter = iota
	kindSharded
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

type metricEntry struct {
	id      string // family + rendered labels
	family  string
	kind    int
	counter *Counter
	sharded *ShardedCounter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// Registry holds named metrics. The zero value is NOT usable; construct
// with NewRegistry. All methods are safe for concurrent use and no-ops on
// a nil Registry, returning nil metric handles (which are themselves
// no-op).
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metricEntry
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metricEntry{}, help: map[string]string{}}
}

// metricID appends to buf the canonical identity name{k1="v1",k2="v2"}:
// label keys sorted, equal keys in the order given, and values quoted as
// %q quotes them. Labels are alternating key/value pairs; a trailing odd
// key is ignored.
func metricID(buf []byte, name string, labels []string) []byte {
	buf = append(buf, name...)
	n := len(labels) / 2
	if n == 0 {
		return buf
	}
	// order lists the pairs by key, by insertion sort: labels are few.
	var small [4]int
	order := small[:0]
	if n > len(small) {
		order = make([]int, 0, n)
	}
	for p := 0; p < n; p++ {
		order = append(order, p)
		j := len(order) - 1
		for ; j > 0 && labels[2*order[j-1]] > labels[2*p]; j-- {
			order[j] = order[j-1]
		}
		order[j] = p
	}
	buf = append(buf, '{')
	for i, p := range order {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, labels[2*p]...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, labels[2*p+1])
	}
	return append(buf, '}')
}

// lookup returns the entry for (name, labels), creating it via mk when
// absent. It returns nil when an existing entry has a different kind (a
// programming error surfaced as a dead metric rather than a crash or a
// type pun). Looking up an existing metric builds its identity in a stack
// buffer and takes only the read lock, so it allocates nothing.
func (r *Registry) lookup(name string, labels []string, kind int, mk func() *metricEntry) *metricEntry {
	if r == nil {
		return nil
	}
	var buf [128]byte
	id := metricID(buf[:0], name, labels)
	r.mu.RLock()
	e, ok := r.metrics[string(id)]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if e, ok = r.metrics[string(id)]; !ok {
			e = mk()
			e.id, e.family, e.kind = string(id), name, kind
			r.metrics[e.id] = e
		}
		r.mu.Unlock()
	}
	if e.kind != kind {
		return nil
	}
	return e
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	e := r.lookup(name, labels, kindCounter, func() *metricEntry {
		return &metricEntry{counter: &Counter{}}
	})
	if e == nil {
		return nil
	}
	return e.counter
}

// ShardedCounter returns the named sharded counter, registering it on
// first use. Intended for write-hot paths shared by many goroutines.
func (r *Registry) ShardedCounter(name string, labels ...string) *ShardedCounter {
	e := r.lookup(name, labels, kindSharded, func() *metricEntry {
		return &metricEntry{sharded: &ShardedCounter{}}
	})
	if e == nil {
		return nil
	}
	return e.sharded
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	e := r.lookup(name, labels, kindGauge, func() *metricEntry {
		return &metricEntry{gauge: &Gauge{}}
	})
	if e == nil {
		return nil
	}
	return e.gauge
}

// Histogram returns the named histogram, registering it with the given
// bucket bounds on first use (later calls reuse the original buckets).
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	e := r.lookup(name, labels, kindHistogram, func() *metricEntry {
		return &metricEntry{hist: newHistogram(buckets)}
	})
	if e == nil {
		return nil
	}
	return e.hist
}

// CounterFunc registers a counter collected by calling fn at scrape or
// snapshot time — the pull pattern for subsystems that already keep their
// own counters (e.g. the SMT result cache).
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	r.lookup(name, labels, kindCounterFunc, func() *metricEntry {
		return &metricEntry{fn: fn}
	})
}

// GaugeFunc registers a gauge collected by calling fn at scrape or
// snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	r.lookup(name, labels, kindGaugeFunc, func() *metricEntry {
		return &metricEntry{fn: fn}
	})
}

// SetHelp attaches a HELP string to a metric family for Prometheus
// rendering.
func (r *Registry) SetHelp(family, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[family] = help
	r.mu.Unlock()
}

// entries returns a sorted copy of the registered entries plus the help
// map, so rendering never holds the registry lock while calling fn
// collectors.
func (r *Registry) entries() ([]*metricEntry, map[string]string) {
	r.mu.RLock()
	out := make([]*metricEntry, 0, len(r.metrics))
	for _, e := range r.metrics {
		out = append(out, e)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].id < out[j].id
	})
	return out, help
}

// Snapshot is a point-in-time copy of every registered metric, keyed by
// the full metric id (family plus labels). It is the structured form
// consumed by benchmarks and the CLI's -stats table.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot collects all metrics. Nil-safe: a nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	entries, _ := r.entries()
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			s.Counters[e.id] = e.counter.Value()
		case kindSharded:
			s.Counters[e.id] = e.sharded.Value()
		case kindCounterFunc:
			s.Counters[e.id] = uint64(e.fn())
		case kindGauge:
			s.Gauges[e.id] = e.gauge.Value()
		case kindGaugeFunc:
			s.Gauges[e.id] = e.fn()
		case kindHistogram:
			s.Histograms[e.id] = e.hist.snapshot()
		}
	}
	return s
}

// promType maps a metric kind to its Prometheus TYPE.
func promType(kind int) string {
	switch kind {
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// formatValue renders a float without exponent noise for integral values.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// labeledID splices extra labels (e.g. le for buckets) into an id and
// appends a suffix to the family part.
func labeledID(id, suffix, extraKey, extraVal string) string {
	name, labels := id, ""
	if i := strings.IndexByte(id, '{'); i >= 0 {
		name, labels = id[:i], id[i+1:len(id)-1]
	}
	if extraKey == "" {
		if labels == "" {
			return name + suffix
		}
		return name + suffix + "{" + labels + "}"
	}
	extra := fmt.Sprintf("%s=%q", extraKey, extraVal)
	if labels == "" {
		return name + suffix + "{" + extra + "}"
	}
	return name + suffix + "{" + labels + "," + extra + "}"
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), deterministically ordered. Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	entries, help := r.entries()
	var b strings.Builder
	seenFamily := map[string]bool{}
	for _, e := range entries {
		if !seenFamily[e.family] {
			seenFamily[e.family] = true
			if h, ok := help[e.family]; ok {
				fmt.Fprintf(&b, "# HELP %s %s\n", e.family, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.family, promType(e.kind))
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", e.id, e.counter.Value())
		case kindSharded:
			fmt.Fprintf(&b, "%s %d\n", e.id, e.sharded.Value())
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", e.id, formatValue(e.fn()))
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", e.id, formatValue(e.gauge.Value()))
		case kindHistogram:
			snap := e.hist.snapshot()
			for _, bk := range snap.Buckets {
				le := "+Inf"
				if !math.IsInf(bk.UpperBound, 1) {
					le = formatValue(bk.UpperBound)
				}
				fmt.Fprintf(&b, "%s %d\n", labeledID(e.id, "_bucket", "le", le), bk.Count)
			}
			fmt.Fprintf(&b, "%s %s\n", labeledID(e.id, "_sum", "", ""), formatValue(snap.Sum))
			fmt.Fprintf(&b, "%s %d\n", labeledID(e.id, "_count", "", ""), snap.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Table renders the snapshot as a human-readable per-phase breakdown:
// histograms first (count, total and mean — the per-stage latency view),
// then counters and gauges. Rows are sorted by id for determinism.
func (s Snapshot) Table() string {
	var b strings.Builder
	if len(s.Histograms) > 0 {
		ids := make([]string, 0, len(s.Histograms))
		width := len("stage")
		for id := range s.Histograms {
			ids = append(ids, id)
			if len(id) > width {
				width = len(id)
			}
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "%-*s  %10s  %12s  %12s\n", width, "stage", "count", "total", "mean")
		for _, id := range ids {
			h := s.Histograms[id]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "%-*s  %10d  %12s  %12s\n", width, id,
				h.Count, formatSeconds(h.Sum), formatSeconds(mean))
		}
	}
	if len(s.Counters) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		ids := make([]string, 0, len(s.Counters))
		width := len("counter")
		for id := range s.Counters {
			ids = append(ids, id)
			if len(id) > width {
				width = len(id)
			}
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "%-*s  %10s\n", width, "counter", "value")
		for _, id := range ids {
			fmt.Fprintf(&b, "%-*s  %10d\n", width, id, s.Counters[id])
		}
	}
	if len(s.Gauges) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		ids := make([]string, 0, len(s.Gauges))
		width := len("gauge")
		for id := range s.Gauges {
			ids = append(ids, id)
			if len(id) > width {
				width = len(id)
			}
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "%-*s  %10s\n", width, "gauge", "value")
		for _, id := range ids {
			fmt.Fprintf(&b, "%-*s  %10s\n", width, id, formatValue(s.Gauges[id]))
		}
	}
	return b.String()
}

// formatSeconds renders a duration in seconds with stable precision.
func formatSeconds(v float64) string {
	return fmt.Sprintf("%.6fs", v)
}
