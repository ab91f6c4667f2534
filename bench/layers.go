package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// obsDelta accumulates the change of registry snapshots over one or more
// windows (one per ingest repetition, one per server phase).
type obsDelta struct {
	counters map[string]float64
	sums     map[string]float64
	counts   map[string]float64
}

func newObsDelta() *obsDelta {
	return &obsDelta{counters: map[string]float64{}, sums: map[string]float64{}, counts: map[string]float64{}}
}

// add folds after-before into d; the zero Snapshot is a valid before for
// a registry created inside the window.
func (d *obsDelta) add(before, after obs.Snapshot) {
	for id, v := range after.Counters {
		d.counters[id] += float64(v) - float64(before.Counters[id])
	}
	for id, h := range after.Histograms {
		b := before.Histograms[id]
		d.sums[id] += h.Sum - b.Sum
		d.counts[id] += float64(h.Count) - float64(b.Count)
	}
}

// match reports whether metric id belongs to family and carries label
// (a rendered `key="value"` pair; empty matches every label set).
func match(id, family, label string) bool {
	fam := id
	if i := strings.IndexByte(id, '{'); i >= 0 {
		fam = id[:i]
	}
	return fam == family && (label == "" || strings.Contains(id, label))
}

func (d *obsDelta) counter(family, label string) float64 {
	var v float64
	for id, x := range d.counters {
		if match(id, family, label) {
			v += x
		}
	}
	return v
}

// hist returns a histogram's observation count and sum (seconds).
func (d *obsDelta) hist(family, label string) (count, sum float64) {
	for id, c := range d.counts {
		if match(id, family, label) {
			count += c
			sum += d.sums[id]
		}
	}
	return count, sum
}

// meanMS is a histogram's mean in milliseconds; 0 with no observations.
func (d *obsDelta) meanMS(family, label string) float64 {
	c, s := d.hist(family, label)
	return ratio(1000*s, c)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerUnits lists every per-layer metric in output order; workloads
// that do not exercise a layer report 0 for its metrics.
var perLayerUnits = []struct{ name, unit string }{
	{"server.solver_queue_wait_ms_mean", "ms"},
	{"server.shed", "count"},
	{"server.query_p99_ms", "ms"},
	{"server.read_p99_ms", "ms"},
	{"server.sweep_policies_per_s", "policies/s"},
	{"core.cold_builds", "count"},
	{"core.cold_build_ms_mean", "ms"},
	{"core.decode_ms_mean", "ms"},
	{"core.build_engine_ms_mean", "ms"},
	{"core.encode_ms_mean", "ms"},
	{"core.payload_kib_mean", "KiB"},
	{"core.extract_ms_mean", "ms"},
	{"core.graph_ms_mean", "ms"},
	{"query.translate_ms_mean", "ms"},
	{"query.subgraph_ms_mean", "ms"},
	{"query.compile_ms_mean", "ms"},
	{"query.solve_ms_mean", "ms"},
	{"query.valid_frac", "ratio"},
	{"query.unknown_frac", "ratio"},
	{"smt.cache_hit_ratio", "ratio"},
	{"smt.cache_evictions", "count"},
	{"smt.fresh_solves", "count"},
	{"smt.fresh_solve_ms_mean", "ms"},
	{"smt.instantiations_per_solve", "count"},
	{"llm.calls", "count"},
	{"llm.sim_calls", "count"},
	{"llm.cache_hit_ratio", "ratio"},
	{"llm.sim_ms_mean", "ms"},
	{"store.open_ms", "ms"},
	{"store.load_payload_ms_mean", "ms"},
	{"store.append_p50_ms", "ms"},
	{"store.append_p99_ms", "ms"},
	{"store.append_batch_ms_mean", "ms"},
	{"store.fsyncs_per_write", "count"},
	{"store.read_p99_ms", "ms"},
	{"store.compactions", "count"},
	{"store.compaction_ms_mean", "ms"},
	{"store.compaction_busy_frac", "ratio"},
	{"store.write_amp", "ratio"},
	{"store.space_amp", "ratio"},
	{"ingest.analyze_ms_mean", "ms"},
	{"ingest.worker_busy_frac", "ratio"},
	{"ingest.batch_policies_mean", "count"},
	{"ingest.scaling_2v1", "ratio"},
	{"replica.visibility_p99_ms", "ms"},
	{"replica.lag_seq_p99", "count"},
	{"replica.lag_seq_max", "count"},
	{"replica.bootstraps", "count"},
	{"replica.reconnects", "count"},
	{"bench.sender_late_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.error_frac", "ratio"},
}

// pipelineLayers derives the metrics every workload reads the same way
// from a measurement-window delta and the wall time of that window.
func pipelineLayers(m map[string]float64, d *obsDelta, window time.Duration) {
	m["server.solver_queue_wait_ms_mean"] = d.meanMS("quagmire_http_solver_queue_wait_seconds", "")
	m["server.shed"] = d.counter("quagmire_http_shed_total", "")
	m["core.extract_ms_mean"] = d.meanMS("quagmire_pipeline_phase_seconds", `phase="extract"`)
	m["core.graph_ms_mean"] = d.meanMS("quagmire_pipeline_phase_seconds", `phase="graph"`)
	for _, ph := range []string{"translate", "subgraph", "compile", "solve"} {
		m["query."+ph+"_ms_mean"] = d.meanMS("quagmire_query_phase_seconds", `phase="`+ph+`"`)
	}
	verdicts := d.counter("quagmire_query_verdicts_total", "")
	m["query.valid_frac"] = ratio(d.counter("quagmire_query_verdicts_total", `verdict="VALID"`), verdicts)
	m["query.unknown_frac"] = ratio(d.counter("quagmire_query_verdicts_total", `verdict="UNKNOWN"`), verdicts)
	hits := d.counter("quagmire_smt_cache_hits_total", "")
	m["smt.cache_hit_ratio"] = ratio(hits, hits+d.counter("quagmire_smt_cache_misses_total", ""))
	m["smt.cache_evictions"] = d.counter("quagmire_smt_cache_evictions_total", "")
	solves, solveSecs := d.hist("quagmire_smt_solve_seconds", "")
	m["smt.fresh_solves"] = solves
	m["smt.fresh_solve_ms_mean"] = ratio(1000*solveSecs, solves)
	m["smt.instantiations_per_solve"] = ratio(d.counter("quagmire_smt_instantiations_total", ""), solves)
	compactions, compactSecs := d.hist("quagmire_store_op_seconds", `op="snapshot"`)
	m["store.compactions"] = d.counter("quagmire_store_snapshots_total", "")
	m["store.compaction_ms_mean"] = ratio(1000*compactSecs, compactions)
	m["store.compaction_busy_frac"] = ratio(compactSecs, window.Seconds())
	m["ingest.analyze_ms_mean"] = d.meanMS("quagmire_ingest_analyze_seconds", "")
	batches, batchSum := d.hist("quagmire_ingest_batch_policies", "")
	m["ingest.batch_policies_mean"] = ratio(batchSum, batches)
}

// llmLayers reads the llm wrappers' counters (deltas since c0/s0).
func llmLayers(m map[string]float64, in *instance, c0, s0, n0 int64) {
	calls := float64(in.outer.calls.Load() - c0)
	sims := float64(in.inner.calls.Load() - s0)
	m["llm.calls"] = calls
	m["llm.sim_calls"] = sims
	m["llm.cache_hit_ratio"] = ratio(calls-sims, calls)
	m["llm.sim_ms_mean"] = ratio(float64(in.inner.nanos.Load()-n0)/1e6, sims)
}

// storeLayers reads the store wrapper's samples.
func storeLayers(m map[string]float64, st *storeWrap, d *obsDelta) {
	app := st.appends.snapshot()
	m["store.append_p50_ms"] = durPercentile(app, 50)
	m["store.append_p99_ms"] = durPercentile(app, 99)
	m["store.read_p99_ms"] = durPercentile(st.reads.snapshot(), 99)
	m["store.append_batch_ms_mean"] = durMean(st.batches.snapshot())
	m["store.fsyncs_per_write"] = ratio(d.counter("quagmire_store_wal_syncs_total", ""), float64(st.writes.Load()))
	if st.amp != nil {
		m["store.write_amp"] = ratio(st.amp.writtenBytes(), float64(st.payloadBytes.Load()))
	}
}

func durPercentile(ds []time.Duration, p float64) float64 {
	cs := &classStats{lat: ds}
	return cs.percentile(p)
}

func durMean(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(ms(sum), float64(len(ds)))
}

// payloadLayers times the payload path directly on up to n stored
// payloads: LoadPayload, DecodeAnalysisEnvelope, BuildEngine and
// EncodeAnalysis, each as a mean in ms, plus the mean payload size.
func payloadLayers(m map[string]float64, st store.PolicyStore, n int, tr *tracer) error {
	in, err := newInstance(tr)
	if err != nil {
		return err
	}
	pols, err := st.List()
	if err != nil {
		return err
	}
	step := max(1, len(pols)/n)
	var load, decode, build, encode time.Duration
	var bytes, k int
	for i := 0; i < len(pols) && k < n; i += step {
		p := pols[i]
		end := directSpan(tr, "store", "LoadPayload")
		t := time.Now()
		raw, err := st.LoadPayload(p.ID, p.Versions)
		load += time.Since(t)
		end()
		if err != nil {
			return err
		}
		end = directSpan(tr, "core", "DecodeAnalysisEnvelope")
		t = time.Now()
		a, err := core.DecodeAnalysisEnvelope(raw)
		decode += time.Since(t)
		end()
		if err != nil {
			return err
		}
		end = directSpan(tr, "core", "BuildEngine")
		t = time.Now()
		in.pipeline.BuildEngine(a)
		build += time.Since(t)
		end()
		end = directSpan(tr, "core", "EncodeAnalysis")
		t = time.Now()
		_, err = core.EncodeAnalysis(a)
		encode += time.Since(t)
		end()
		if err != nil {
			return err
		}
		bytes += len(raw)
		k++
	}
	m["store.load_payload_ms_mean"] = ratio(ms(load), float64(k))
	m["core.decode_ms_mean"] = ratio(ms(decode), float64(k))
	m["core.build_engine_ms_mean"] = ratio(ms(build), float64(k))
	m["core.encode_ms_mean"] = ratio(ms(encode), float64(k))
	m["core.payload_kib_mean"] = ratio(float64(bytes)/1024, float64(k))
	return nil
}

// directSpan opens a root span for a direct timed call.
func directSpan(tr *tracer, layer, name string) func() {
	_, end := tr.start(context.Background(), layer, name)
	return end
}

// spaceAmp is the store directory's on-disk bytes over the payload bytes
// of every stored version.
func spaceAmp(dir string, st store.PolicyStore) (float64, error) {
	pols, err := st.List()
	if err != nil {
		return 0, err
	}
	var live int64
	for _, p := range pols {
		vs, err := st.Versions(p.ID)
		if err != nil {
			return 0, err
		}
		for _, v := range vs {
			live += int64(v.Bytes)
		}
	}
	var disk int64
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			disk += fi.Size()
		}
		return err
	})
	return ratio(float64(disk), float64(live)), err
}

// finite maps an infinite percentile (more failures than the rank) to
// the largest float so it still serializes as JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
