// Command quagbench is the repository's end-to-end benchmark: it boots
// the real server in-process over a durable disk store, drives it from
// the same process over loopback, and prints every end-to-end metric (or,
// with -trace 1, every per-layer metric) for one workload as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload query-cold -seed 1 -seconds 15 -trace 0
//	cd bench && go run . -workload ingest -seed 2 -trace 1
//	cd bench && go run . -seed 1             # every workload, one child process each
//
// All inputs come from internal/corpus with the seed; fixtures are built
// by the program's own ingest.Run on every run and are excluded from
// every metric. A failed correctness check exits non-zero without a
// result line. See README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // tiny input sizes, set by the smoke test
	work     string // scratch root for corpora and stores, removed at exit
	spans    string // directory receiving <workload>.spans.json
	nproc    int
}

// metric is one reported value; n is its sample count (stderr only).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is what a workload returns: the end-to-end metrics, the
// per-layer metrics (trace runs), request counts and any correctness
// failures.
type result struct {
	e2e       map[string]metric
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// End-to-end metric names; every workload reports all of them.
const (
	mSetup      = "setup_s"
	mP50        = "p50_ms"
	mTail       = "tail_ms"
	mThroughput = "throughput"
	mRSS        = "peak_rss_mb"
)

var workloads = map[string]func(cfg config) (*result, error){
	"query-hot":  runQueryHot,
	"query-cold": runQueryCold,
	"write-mix":  runWriteMix,
	"ingest":     runIngest,
}

var workloadOrder = []string{"query-hot", "query-cold", "write-mix", "ingest"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (query-hot|query-cold|write-mix|ingest); empty runs all, one child process each")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.work, "workdir", ".bench_build/work", "scratch directory for corpora and stores")
	flag.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory for span files of traced runs")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.nproc)
	if cfg.workload == "" {
		if err := runAll(cfg, trace); err != nil {
			fmt.Fprintln(os.Stderr, "quagbench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quagbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runOne runs cfg.workload in this process and renders its result line.
func runOne(cfg config) ([]byte, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadOrder, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	printTable(cfg, res)
	if len(res.problems) > 0 {
		return nil, fmt.Errorf("%s: correctness check failed:\n  %s", cfg.workload, strings.Join(res.problems, "\n  "))
	}
	metrics := map[string]metric{}
	if cfg.trace {
		for _, pl := range perLayerUnits {
			metrics[pl.name] = metric{Value: res.layers[pl.name], Unit: pl.unit}
		}
	} else {
		for _, e := range e2eUnits {
			m, ok := res.e2e[e.name]
			if !ok || m.Value <= 0 {
				return nil, fmt.Errorf("%s: metric %s missing or zero", cfg.workload, e.name)
			}
			metrics[e.name] = m
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.attempted, res.failed, metrics})
}

var e2eUnits = []struct{ name, unit string }{
	{mSetup, "s"}, {mP50, "ms"}, {mTail, "ms"}, {mThroughput, "1/s"}, {mRSS, "MiB"},
}

// printTable writes the human-readable metrics with sample counts.
func printTable(cfg config, res *result) {
	w := os.Stderr
	fmt.Fprintf(w, "== %s (seed %d, %gs, trace=%v): attempted %d, failed %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res.attempted, res.failed)
	for _, e := range e2eUnits {
		if m, ok := res.e2e[e.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-10s n=%d\n", e.name, m.Value, m.Unit, m.n)
		}
	}
	if cfg.trace {
		for _, pl := range perLayerUnits {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", pl.name, res.layers[pl.name], pl.unit)
		}
	}
}

// runAll runs every workload in its own child process, so peak RSS, GC
// state and the process-global expvar never leak between workloads, and
// prints {workload: {metric: {value, unit}}}.
func runAll(cfg config, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := map[string]json.RawMessage{}
	for _, wl := range workloadOrder {
		cmd := exec.Command(self, "-workload", wl, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace),
			"-workdir", cfg.work, "-spans", cfg.spans)
		cmd.Stderr = os.Stderr
		start := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var line struct {
			Metrics json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			return fmt.Errorf("%s: result line: %w", wl, err)
		}
		all[wl] = line.Metrics
		fmt.Fprintf(os.Stderr, "   %s took %s\n", wl, time.Since(start).Round(time.Millisecond))
	}
	out, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.spans, cfg.workload+".spans.json")
}
