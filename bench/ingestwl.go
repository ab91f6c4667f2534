package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/ingest"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// ingestRep is one repetition's outcome.
type ingestRep struct {
	run      time.Duration
	policies int
	traced   bool
}

// runIngest: generated corpora through ingest.Run with Workers = nproc
// into fresh stores, repeated until the measured seconds are spent.
// Analysis from scratch plus AppendBatch and compaction rewrites; HTTP,
// query and the solver are bypassed.
func runIngest(cfg config) (*result, error) {
	sz := sizesOf(cfg)
	tr := newTracer()
	res := &result{}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var (
		reps     []ingestRep
		batches  []time.Duration
		gaps     []time.Duration
		reads    []time.Duration
		opens    []float64
		writes   int64
		payload  int64
		written  float64
		calls    [3]int64
		delta    = newObsDelta()
		lastDir  string
		runTime  time.Duration
		deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("rep%d", rep))
		corpusDir := filepath.Join(dir, "corpus")
		if _, err := corpus.WriteCorpus(corpusDir, sz.policies, cfg.seed*1000+int64(rep)); err != nil {
			return nil, err
		}
		in, err := newInstance(tr)
		if err != nil {
			return nil, err
		}
		openStart := time.Now()
		disk, err := store.OpenDisk(filepath.Join(dir, "data"), store.Options{Obs: in.reg})
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(openStart)))
		st := newStoreWrap(disk, tr)
		if cfg.trace {
			st.amp = &ampMeter{reg: in.reg, dir: filepath.Join(dir, "data")}
		}
		r := ingestRep{traced: cfg.trace && rep%2 == 1}
		tr.enabled.Store(r.traced)
		runStart := time.Now()
		// Progress fires after every durable batch commit; the gaps between
		// commits are the latency a user of a bulk ingest sees.
		last := runStart
		progress := func(ingest.Progress) {
			now := time.Now()
			gaps = append(gaps, now.Sub(last))
			last = now
		}
		sum, err := ingest.Run(context.Background(), in.pipeline, st, corpusDir,
			ingest.Options{Workers: cfg.nproc, Obs: in.reg, Progress: progress})
		r.run = time.Since(runStart)
		tr.enabled.Store(false)
		if err != nil {
			disk.Close()
			return nil, err
		}
		r.policies = sum.Ingested
		res.attempted += sum.Discovered
		res.failed += len(sum.Failed)
		if sum.Ingested != sz.policies || len(sum.Failed) > 0 {
			res.fail("rep %d: ingested %d of %d, %d failed", rep, sum.Ingested, sz.policies, len(sum.Failed))
		}
		reps = append(reps, r)
		runTime += r.run
		batches = append(batches, st.batches.snapshot()...)
		reads = append(reads, st.reads.snapshot()...)
		writes += st.writes.Load()
		payload += st.payloadBytes.Load()
		if st.amp != nil {
			written += st.amp.writtenBytes()
		}
		delta.add(obs.Snapshot{}, in.reg.Snapshot())
		calls[0] += in.outer.calls.Load()
		calls[1] += in.inner.calls.Load()
		calls[2] += in.inner.nanos.Load()
		if err := disk.Close(); err != nil {
			return nil, err
		}
		// Keep the newest store for the boot; drop the rest.
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = dir
	}
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	ingested := 0
	for _, r := range reps {
		ingested += r.policies
	}
	// Set-up is the boot a user waits for before the ingested corpus
	// answers: OpenDisk → server.New → warmer drained → first query, over
	// the store ingest.Run just wrote, repeated and reported as the median.
	cl := newClient(cfg.nproc, tr)
	defer cl.close()
	p, setup, setups, err := setupReps(filepath.Join(lastDir, "data"), sz.setups, tr, cl)
	if err != nil {
		return nil, err
	}
	defer p.close()
	cs := &classStats{lat: gaps}
	res.e2e = map[string]metric{
		mSetup:      {Value: setup, Unit: "s", n: len(setups)},
		mP50:        {Value: cs.percentile(50), Unit: "ms", n: len(gaps)},
		mTail:       {Value: cs.percentile(tailPercentile), Unit: "ms", n: len(gaps)},
		mThroughput: {Value: float64(ingested) / runTime.Seconds(), Unit: "1/s", n: ingested},
		mRSS:        {Value: peak, Unit: "MiB"},
	}
	if !cfg.trace {
		return res, nil
	}
	m := map[string]float64{}
	pipelineLayers(m, delta, runTime)
	m["llm.calls"] = float64(calls[0])
	m["llm.sim_calls"] = float64(calls[1])
	m["llm.cache_hit_ratio"] = ratio(float64(calls[0]-calls[1]), float64(calls[0]))
	m["llm.sim_ms_mean"] = ratio(float64(calls[2])/1e6, float64(calls[1]))
	m["store.open_ms"] = median(opens)
	m["store.read_p99_ms"] = durPercentile(reads, 99)
	m["store.append_batch_ms_mean"] = durMean(batches)
	m["store.fsyncs_per_write"] = ratio(delta.counter("quagmire_store_wal_syncs_total", ""), float64(writes))
	m["store.write_amp"] = ratio(written, float64(payload))
	_, analyzeSecs := delta.hist("quagmire_ingest_analyze_seconds", "")
	m["ingest.worker_busy_frac"] = ratio(analyzeSecs, float64(cfg.nproc)*runTime.Seconds())
	m["bench.trace_overhead_frac"] = traceOverhead(reps)
	m["bench.error_frac"] = ratio(float64(res.failed), float64(res.attempted))
	tr.enabled.Store(true)
	if err := payloadLayers(m, p.disk, sz.payloads, tr); err != nil {
		return nil, err
	}
	amp, err := spaceAmp(p.dir, p.disk)
	if err != nil {
		return nil, err
	}
	m["store.space_amp"] = amp
	if m["ingest.scaling_2v1"], err = scaling(cfg, sz); err != nil {
		return nil, err
	}
	res.layers = m
	return res, finishTrace(cfg, tr)
}

// traceOverhead compares seconds per policy of traced and untraced reps.
func traceOverhead(reps []ingestRep) float64 {
	var per [2]struct {
		t time.Duration
		n int
	}
	for _, r := range reps {
		k := 0
		if r.traced {
			k = 1
		}
		per[k].t += r.run
		per[k].n += r.policies
	}
	if per[0].n == 0 || per[1].n == 0 {
		return 0
	}
	return ratio(per[1].t.Seconds()/float64(per[1].n), per[0].t.Seconds()/float64(per[0].n)) - 1
}

// scaling ingests one subset at Workers=1 and Workers=2 and returns the
// rate ratio.
func scaling(cfg config, sz sizes) (float64, error) {
	n := min(150, sz.policies)
	dir := filepath.Join(cfg.work, "scaling")
	corpusDir := filepath.Join(dir, "corpus")
	if _, err := corpus.WriteCorpus(corpusDir, n, cfg.seed); err != nil {
		return 0, err
	}
	var took [2]time.Duration
	for i, workers := range []int{1, 2} {
		start := time.Now()
		sum, err := ingestDir(corpusDir, filepath.Join(dir, fmt.Sprintf("data%d", workers)), workers, nil)
		if err != nil {
			return 0, err
		}
		if sum.Ingested != n {
			return 0, fmt.Errorf("scaling: ingested %d of %d", sum.Ingested, n)
		}
		took[i] = time.Since(start)
	}
	return ratio(took[0].Seconds(), took[1].Seconds()), nil
}
