package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// Query workload sizes, frozen at the commit that introduced the
// benchmark: the clients send this many requests per measured second in
// all, near the workload's throughput on a slow stretch of the shared
// 2-core host. A run sends a fixed count instead of running for a fixed
// time, so it does the same work whatever the host's speed (with a fixed
// time, a fast stretch drew more cold pairs in query-cold), and a faster
// build finishes the same work sooner.
//
// The clients send back to back. Sent on a schedule at a fixed rate, the
// latencies of query-cold jumped by half between runs on a noisy stretch
// of the host while its throughput moved by a tenth, because a virtual CPU
// left idle between requests is slow to wake; and a rate high enough to
// keep the CPUs busy queued whenever the host slowed (see README.md).
const (
	hotRate  = 3500 // requests/s, 90% query and 10% read
	coldRate = 500  // requests/s, 95% query and 5% read
)

// sizes are a workload's input sizes; smoke runs shrink them.
type sizes struct {
	policies  int // stored policies (query-hot adds the Mini policy)
	questions int // questions per policy pool
	setups    int // set-up repetitions, reported as their median
	refPairs  int // pairs checked against the uncached reference
	payloads  int // stored payloads timed by the direct calls
}

func sizesFor(cfg config, full sizes) sizes {
	if !cfg.smoke {
		return full
	}
	return sizes{policies: min(full.policies, 12), questions: min(full.questions, 16), setups: 2, refPairs: 40, payloads: 10}
}

// resetPeakRSS returns fixture garbage to the OS and resets the kernel's
// resident-set high-water mark, so peakRSS counts from here on.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	_, err = f.WriteString("5")
	return errors.Join(err, f.Close())
}

// peakRSS reads the high-water mark VmHWM from /proc/self/status in MiB.
func peakRSS() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// pair is one (policy, question) the load can ask.
type pair struct {
	pol int
	q   string
}

// corpusView is the served corpus as the client sees it: IDs, names,
// companies and one question pool per policy.
type corpusView struct {
	ids, names, companies []string
	pools                 [][]string
}

// loadView lists the corpus and builds every policy's question pool from
// its own GET …/edges, borrowing data types from the next two policies
// for the swapped questions.
func loadView(cl *client, base string, seed int64, perPolicy int) (*corpusView, error) {
	var list []struct {
		ID, Name, Company string
	}
	if err := cl.getJSON(base+"/v1/policies", &list); err != nil {
		return nil, err
	}
	v := &corpusView{}
	var flows [][]flow
	for _, p := range list {
		var edges []edgeJSON
		if err := cl.getJSON(base+"/v1/policies/"+p.ID+"/edges", &edges); err != nil {
			return nil, err
		}
		v.ids = append(v.ids, p.ID)
		v.names = append(v.names, p.Name)
		v.companies = append(v.companies, p.Company)
		flows = append(flows, policyFlows(p.Company, edges))
	}
	n := len(list)
	for i := range list {
		foreign := append(dataTypes(flows[(i+1)%n]), dataTypes(flows[(i+2)%n])...)
		pool := questionPool(seed*1_000_003+int64(i), v.companies[i], flows[i], foreign, perPolicy)
		if len(pool) == 0 {
			return nil, fmt.Errorf("policy %s: empty question pool", v.ids[i])
		}
		v.pools = append(v.pools, pool)
	}
	return v, nil
}

// pairs lists every (policy, question) pair in pool order.
func (v *corpusView) pairs() []pair {
	var out []pair
	for i, pool := range v.pools {
		for _, q := range pool {
			out = append(out, pair{i, q})
		}
	}
	return out
}

// verdicts records the verdict served for every pair and flags a pair
// that was answered two different ways.
type verdicts struct {
	mu       sync.Mutex
	m        map[pair]string
	mismatch []string
}

func newVerdicts() *verdicts { return &verdicts{m: map[pair]string{}} }

func (vs *verdicts) record(p pair, v string) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if old, ok := vs.m[p]; ok && old != v {
		vs.mismatch = append(vs.mismatch, fmt.Sprintf("policy %d %q: %s then %s", p.pol, p.q, old, v))
	}
	vs.m[p] = v
}

// queryOp asks one pair over HTTP; it succeeds on a 200 with a verdict.
func queryOp(cl *client, base string, view *corpusView, p pair, vs *verdicts) op {
	url := base + "/v1/policies/" + view.ids[p.pol] + "/query"
	body := map[string]string{"question": p.q}
	return op{class: "query", send: func(ctx context.Context) bool {
		code, raw, err := cl.do(ctx, http.MethodPost, url, body)
		if err != nil || code != http.StatusOK {
			return false
		}
		var resp struct {
			Verdict string `json:"verdict"`
		}
		if json.Unmarshal(raw, &resp) != nil {
			return false
		}
		switch resp.Verdict {
		case "VALID", "INVALID", "UNKNOWN":
			vs.record(p, resp.Verdict)
			return true
		}
		return false
	}}
}

// readOp fetches one policy's metadata.
func readOp(cl *client, base, id string) op {
	url := base + "/v1/policies/" + id
	return op{class: "read", send: func(ctx context.Context) bool {
		code, _, err := cl.do(ctx, http.MethodGet, url, nil)
		return err == nil && code == http.StatusOK
	}}
}

// referenceCheck re-asks up to n served pairs on a fresh pipeline with
// no SMT or LLM cache (DecodeAnalysis(LoadPayload) + Engine.Ask) and
// requires identical verdicts, then requires the checked sample to hold
// at least 20% VALID and 20% INVALID so both solver outcomes ran.
func referenceCheck(res *result, st store.PolicyStore, view *corpusView, vs *verdicts, n int, seed int64) error {
	for _, m := range vs.mismatch {
		res.fail("repeated pair, different verdict: %s", m)
	}
	served := make([]pair, 0, len(vs.m))
	for p := range vs.m {
		served = append(served, p)
	}
	sort.Slice(served, func(i, j int) bool {
		if served[i].pol != served[j].pol {
			return served[i].pol < served[j].pol
		}
		return served[i].q < served[j].q
	})
	rand.New(rand.NewSource(seed)).Shuffle(len(served), func(i, j int) { served[i], served[j] = served[j], served[i] })
	if len(served) > n {
		served = served[:n]
	}
	ref, err := core.New(core.Options{Client: llm.NewSim(), SMTCacheSize: -1})
	if err != nil {
		return err
	}
	analyses := map[int]*core.Analysis{}
	count := map[string]int{}
	for _, p := range served {
		a := analyses[p.pol]
		if a == nil {
			id := view.ids[p.pol]
			meta, err := st.Get(id)
			if err != nil {
				return err
			}
			raw, err := st.LoadPayload(id, meta.Versions)
			if err != nil {
				return err
			}
			if a, err = ref.DecodeAnalysis(raw); err != nil {
				return err
			}
			analyses[p.pol] = a
		}
		r, err := a.Engine.Ask(context.Background(), p.q)
		if err != nil {
			res.fail("reference ask %s %q: %v", view.ids[p.pol], p.q, err)
			continue
		}
		count[string(r.Verdict)]++
		if got := vs.m[p]; got != string(r.Verdict) {
			res.fail("policy %s %q: served %s, reference %s", view.ids[p.pol], p.q, got, r.Verdict)
		}
	}
	checkMix(res, "reference sample", count)
	return nil
}

// checkMix requires at least 20% VALID and 20% INVALID verdicts.
func checkMix(res *result, what string, count map[string]int) {
	total := 0
	for _, c := range count {
		total += c
	}
	if total == 0 || 5*count["VALID"] < total || 5*count["INVALID"] < total {
		res.fail("%s: verdict mix %v has under 20%% VALID or INVALID", what, count)
	}
}

// tailPercentile is the percentile tail_ms reports: the highest that
// keeps at least ten samples beyond it in every workload (ingest has about
// a hundred commit gaps per run, write-mix 600 updates). Under closed
// loops p85 to p95 spread alike between runs and p99 twice as wide. The
// per-layer metrics keep p99s for the deep tail.
const tailPercentile = 90

// cycleCount is how many cycles a run is split into, so that a traced run
// can alternate traced and untraced cycles over the whole run.
const cycleCount = 10

// cycle is one closed loop, timed, which gives every end-to-end metric,
// and the open loop run beside it, if any.
type cycle struct {
	timed, background *loadResult
	traced            bool
}

// runCycles runs cycleCount cycles. In a traced run odd cycles record
// spans and even cycles do not, and the ratio of their median latencies
// is the tracing overhead.
func runCycles(cfg config, tr *tracer, run func() cycle) []cycle {
	cycles := make([]cycle, cycleCount)
	for i := range cycles {
		traced := cfg.trace && i%2 == 1
		tr.enabled.Store(traced)
		cycles[i] = run()
		cycles[i].traced = traced
	}
	tr.enabled.Store(cfg.trace)
	return cycles
}

// queryCycle is a query workload's cycle: nproc clients back to back
// until they have sent rate requests per second of the cycle's share of
// the measured seconds.
func queryCycle(cfg config, rate float64, next func() op) func() cycle {
	n := max(1, int(rate*cfg.seconds/cycleCount))
	return func() cycle { return cycle{timed: closedLoop(cfg.nproc, n, next)} }
}

// traceOverheadOf compares the median latency of class in traced and
// untraced cycles.
func traceOverheadOf(cycles []cycle, class string) float64 {
	var plain, traced []float64
	for _, c := range cycles {
		p50 := c.timed.class(class).percentile(50)
		if c.traced {
			traced = append(traced, p50)
		} else {
			plain = append(plain, p50)
		}
	}
	if len(traced) == 0 {
		return 0
	}
	return ratio(median(traced), median(plain)) - 1
}

// merge pools the stats of several load phases; nil phases are skipped.
func merge(rs ...*loadResult) *loadResult {
	out := newLoadResult()
	for _, r := range rs {
		if r == nil {
			continue
		}
		for name, cs := range r.classes {
			dst := out.class(name)
			dst.lat = append(dst.lat, cs.lat...)
			dst.failed += cs.failed
		}
		out.late.lat = append(out.late.lat, r.late.lat...)
		out.elapsed += r.elapsed
	}
	return out
}

// serverRun is the state a server workload carries from set-up to report.
type serverRun struct {
	cfg       config
	corpusDir string
	tr        *tracer
	cl        *client
	p         *primary
	setup     float64
	setups    []float64
	boot      obs.Snapshot // registry right after set-up
	start     time.Time    // measurement start
	before    obs.Snapshot
	llm0      [3]int64
}

// bootServer builds the fixture, runs the set-up repetitions and leaves
// the last boot serving.
func bootServer(cfg config, n int, withMini bool, reps int) (*serverRun, error) {
	corpusDir, dataDir, err := fixture(cfg.work, n, cfg.seed, withMini)
	if err != nil {
		return nil, err
	}
	sr := &serverRun{cfg: cfg, tr: newTracer(), corpusDir: corpusDir}
	sr.cl = newClient(cfg.nproc, sr.tr)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	sr.p, sr.setup, sr.setups, err = setupReps(dataDir, reps, sr.tr, sr.cl)
	if err != nil {
		return nil, err
	}
	sr.boot = sr.p.reg.Snapshot()
	return sr, nil
}

// begin marks the start of the measured phases.
func (sr *serverRun) begin() {
	sr.p.st.appends.reset()
	sr.p.st.reads.reset()
	sr.p.st.batches.reset()
	sr.start = time.Now()
	sr.before = sr.p.reg.Snapshot()
	sr.llm0 = [3]int64{sr.p.outer.calls.Load(), sr.p.inner.calls.Load(), sr.p.inner.nanos.Load()}
}

// report fills the end-to-end metrics from the timed loops of every cycle
// pooled: class latency at p50 and at tailPercentile, and class
// completions per second; in traced runs also every per-layer metric the
// server path exposes.
func (sr *serverRun) report(res *result, cycles []cycle, class string) error {
	window := time.Since(sr.start)
	after := sr.p.reg.Snapshot()
	peak, err := peakRSS()
	if err != nil {
		return err
	}
	var timeds, loads []*loadResult
	for _, c := range cycles {
		timeds = append(timeds, c.timed)
		loads = append(loads, c.timed, c.background)
	}
	timed, load := merge(timeds...), merge(loads...)
	lat := timed.class(class)
	res.e2e = map[string]metric{
		mSetup:      {Value: sr.setup, Unit: "s", n: len(sr.setups)},
		mP50:        {Value: finite(lat.percentile(50)), Unit: "ms", n: lat.attempted()},
		mTail:       {Value: finite(lat.percentile(tailPercentile)), Unit: "ms", n: lat.attempted()},
		mThroughput: {Value: timed.rate(class), Unit: "1/s", n: lat.attempted()},
		mRSS:        {Value: peak, Unit: "MiB"},
	}
	res.attempted, res.failed = load.counts()
	if !sr.cfg.trace {
		return nil
	}
	m := map[string]float64{}
	d := newObsDelta()
	d.add(sr.before, after)
	pipelineLayers(m, d, window)
	bootD := newObsDelta()
	bootD.add(obs.Snapshot{}, sr.boot)
	m["core.cold_builds"] = bootD.counter("quagmire_engine_builds_total", "")
	m["core.cold_build_ms_mean"] = bootD.meanMS("quagmire_engine_cold_start_seconds", "")
	llmLayers(m, sr.p.instance, sr.llm0[0], sr.llm0[1], sr.llm0[2])
	storeLayers(m, sr.p.st, d)
	m["store.open_ms"] = sr.p.openMS
	m["server.query_p99_ms"] = finite(load.class("query").percentile(99))
	m["server.read_p99_ms"] = finite(load.class("read").percentile(99))
	m["bench.sender_late_p99_ms"] = load.late.percentile(99)
	m["bench.trace_overhead_frac"] = traceOverheadOf(cycles, class)
	m["bench.error_frac"] = ratio(float64(res.failed), float64(res.attempted))
	if err := payloadLayers(m, sr.p.disk, sizesOf(sr.cfg).payloads, sr.tr); err != nil {
		return err
	}
	amp, err := spaceAmp(sr.p.dir, sr.p.disk)
	if err != nil {
		return err
	}
	m["store.space_amp"] = amp
	res.layers = m
	return nil
}

// finishTrace writes the span file and the self-time table.
func finishTrace(cfg config, tr *tracer) error {
	if !cfg.trace {
		return nil
	}
	tr.enabled.Store(false)
	tr.mu.Lock()
	rows := selfTimes(tr.spans)
	tr.mu.Unlock()
	fmt.Fprintf(os.Stderr, "-- %s self time per layer (traced phases)\n", cfg.workload)
	printSelfTimes(os.Stderr, rows)
	return tr.writeSpans(spanPath(cfg))
}

// sizesOf returns the configured sizes of cfg's workload.
func sizesOf(cfg config) sizes {
	switch cfg.workload {
	case "query-hot":
		return sizesFor(cfg, sizes{policies: 7, questions: 32, setups: 15, refPairs: 500, payloads: 8})
	case "query-cold":
		return sizesFor(cfg, sizes{policies: 300, questions: 48, setups: 5, refPairs: 500, payloads: 100})
	case "write-mix":
		return sizesFor(cfg, sizes{policies: 300, questions: 48, setups: 5, payloads: 100})
	default:
		return sizesFor(cfg, sizes{policies: 300, setups: 5, payloads: 100})
	}
}

// runQueryHot: 8 policies × 32 questions, every pair asked once before
// timing, so the SMT result cache answers every solve and HTTP,
// translate, subgraph and compile dominate.
func runQueryHot(cfg config) (*result, error) {
	sz := sizesOf(cfg)
	sr, err := bootServer(cfg, sz.policies, true, sz.setups)
	if err != nil {
		return nil, err
	}
	defer sr.cl.close()
	defer sr.p.close()
	res := &result{}
	view, err := loadView(sr.cl, sr.p.base, cfg.seed, sz.questions)
	if err != nil {
		return nil, err
	}
	vs := newVerdicts()
	all := view.pairs()
	for i, p := range all {
		if !queryOp(sr.cl, sr.p.base, view, p, vs).send(context.Background()) {
			return nil, fmt.Errorf("untimed pass: pair %d failed", i)
		}
	}
	for i, pool := range view.pools {
		count := map[string]int{}
		for _, q := range pool {
			count[vs.m[pair{i, q}]]++
		}
		checkMix(res, "pool of "+view.ids[i], count)
	}
	// The untimed pass peaks anywhere from 25 to 43 MiB, differently on
	// reruns of one seed, as collections fall among its fresh solves; the
	// load after it stays within a few percent. peak_rss_mb here is the
	// load's.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	sr.begin()
	cycles := runCycles(cfg, sr.tr, queryCycle(cfg, hotRate, func() op {
		if rng.Intn(10) == 0 {
			return readOp(sr.cl, sr.p.base, view.ids[rng.Intn(len(view.ids))])
		}
		return queryOp(sr.cl, sr.p.base, view, all[rng.Intn(len(all))], vs)
	}))
	if err := sr.report(res, cycles, "query"); err != nil {
		return nil, err
	}
	if err := referenceCheck(res, sr.p.disk, view, vs, sz.refPairs, cfg.seed); err != nil {
		return nil, err
	}
	return res, finishTrace(cfg, sr.tr)
}

// runQueryCold: a 300-policy store booted cold, pairs drawn without
// replacement so every query is a fresh translation and a fresh solve.
func runQueryCold(cfg config) (*result, error) {
	sz := sizesOf(cfg)
	sr, err := bootServer(cfg, sz.policies, false, sz.setups)
	if err != nil {
		return nil, err
	}
	defer sr.cl.close()
	defer sr.p.close()
	res := &result{}
	view, err := loadView(sr.cl, sr.p.base, cfg.seed, sz.questions)
	if err != nil {
		return nil, err
	}
	vs := newVerdicts()
	all := view.pairs()
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	// Pairs are drawn without replacement; once the pool runs out (smoke
	// sizes, or runs of more than about 25 measured seconds) draws repeat
	// and count as repeats on stderr.
	nextPair, repeats := 0, 0
	take := func() pair {
		if nextPair == len(all) {
			repeats++
			return all[rng.Intn(len(all))]
		}
		nextPair++
		return all[nextPair-1]
	}
	sr.begin()
	cycles := runCycles(cfg, sr.tr, queryCycle(cfg, coldRate, func() op {
		if rng.Intn(20) == 0 {
			return readOp(sr.cl, sr.p.base, view.ids[rng.Intn(len(view.ids))])
		}
		return queryOp(sr.cl, sr.p.base, view, take(), vs)
	}))
	fmt.Fprintf(os.Stderr, "   query-cold: %d of %d pairs drawn, %d repeats\n", nextPair, len(all), repeats)
	if err := sr.report(res, cycles, "query"); err != nil {
		return nil, err
	}
	if cfg.trace {
		rate, err := sweeps(sr.cl, sr.p.base, view, 5)
		if err != nil {
			return nil, err
		}
		res.layers["server.sweep_policies_per_s"] = rate
	}
	if err := referenceCheck(res, sr.p.disk, view, vs, sz.refPairs, cfg.seed); err != nil {
		return nil, err
	}
	return res, finishTrace(cfg, sr.tr)
}

// sweeps runs k back-to-back corpus queries, each with a distinct
// question, and returns policies answered per second.
func sweeps(cl *client, base string, view *corpusView, k int) (float64, error) {
	data := []string{"email address", "location", "device identifier", "purchase history", "contacts"}
	start := time.Now()
	answered := 0
	for i := 0; i < k; i++ {
		body := map[string]string{"query": "Do you share my " + data[i%len(data)] + " with advertising partners?"}
		code, raw, err := cl.do(context.Background(), http.MethodPost, base+"/v1/corpus/query", body)
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("sweep %d: %d %v", i, code, err)
		}
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		var sum struct {
			Summary struct {
				Policies, Errors int
				Incomplete       bool
			} `json:"summary"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
			return 0, fmt.Errorf("sweep %d summary: %w", i, err)
		}
		if sum.Summary.Errors > 0 || sum.Summary.Incomplete || sum.Summary.Policies != len(view.ids) {
			return 0, fmt.Errorf("sweep %d: %+v", i, sum.Summary)
		}
		answered += sum.Summary.Policies
	}
	return float64(answered) / time.Since(start).Seconds(), nil
}
