// Command benchguard is CI's benchmark regression guard: a paired,
// same-host comparison of the working tree against a base commit.
//
//	go run ./cmd/benchguard -base origin/main
//
// It builds the guarded packages' test binaries at the base commit (in a
// temporary git worktree) and in the working tree, then runs every guarded
// benchmark on both for 10 rounds at -benchtime 3x, alternating which side
// runs first. No number recorded on another host enters the verdict. A row
// fails when head's median exceeds base's by more than 20%, or when head
// lacks it; a row the base lacks is new. The table gives each side's
// median and quartiles, their ratio, and in how many rounds head read
// higher.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

const (
	rounds    = 10
	benchtime = "3x"
	// maxRatio is the largest head/base ratio of medians a row may read.
	maxRatio = 1.20
)

// row is one guarded (benchmark, unit) pair and the package, relative to
// the module root, whose tests hold the benchmark.
type row struct{ pkg, bench, unit string }

// guarded is every row the guard checks. Count rows (allocs/op, B/op)
// catch allocation regressions too small for time at 3x iterations to
// show; BenchmarkCorpusQuery's ns/op, an HTTP fan-out, is too noisy.
var guarded = []row{
	{".", "BenchmarkStageBreakdown", "ns/solve"},
	{".", "BenchmarkStageBreakdown", "allocs/op"},
	{".", "BenchmarkSMTClauseSweep/edges-25", "ns/op"},
	{".", "BenchmarkSMTClauseSweep/edges-25", "allocs/op"},
	{".", "BenchmarkBatchVerification/workers-4", "ns/op"},
	{".", "BenchmarkBatchVerification/workers-4", "allocs/op"},
	{"./internal/scenario", "BenchmarkScenarioSuite", "ns/op"},
	{"./internal/scenario", "BenchmarkScenarioSuite", "allocs/op"},
	{"./internal/server", "BenchmarkRecoveryBoot/lazy/policies-8", "ns/op"},
	{"./internal/server", "BenchmarkRecoveryBoot/lazy/policies-64", "ns/op"},
	{"./internal/server", "BenchmarkRecoveryBoot/lazy/policies-64", "allocs/op"},
	{"./internal/server", "BenchmarkRecoveryBoot/warmed/policies-64", "ns/op"},
	{"./internal/server", "BenchmarkRecoveryBoot/warmed/policies-64", "allocs/op"},
	{"./internal/server", "BenchmarkCorpusQuery", "B/op"},
	{"./internal/server", "BenchmarkCorpusQuery", "allocs/op"},
	{"./internal/ingest", "BenchmarkCorpusIngest/workers=1", "ns/op"},
	{"./internal/ingest", "BenchmarkCorpusIngest/workers=1", "allocs/op"},
	{"./internal/store", "BenchmarkSnapshotOpen/v2/policies-100", "ns/op"},
	{"./internal/store", "BenchmarkSnapshotOpen/v2/policies-100", "allocs/op"},
	{"./internal/store", "BenchmarkSnapshotOpen/v2/policies-1000", "ns/op"},
	{"./internal/store", "BenchmarkSnapshotOpen/v2/policies-1000", "allocs/op"},
}

// samples holds one side's results: benchmark name → unit → one value per
// round, in round order.
type samples map[string]map[string][]float64

// side is one tree's test binaries, by package, and their results. A
// package the tree lacks has no binary, and its rows are new.
type side struct {
	name, root string
	bins       map[string]string
	samples    samples
}

func main() {
	base := flag.String("base", "", "git ref to compare the working tree against")
	flag.Parse()
	if *base == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchguard -base REF")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	failed, err := run(ctx, *base, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// run builds both sides, runs the rounds and prints the verdict table.
func run(ctx context.Context, ref string, w io.Writer) (failed bool, err error) {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	sha, err := git(ctx, root, "rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "benchguard-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "base")
	if _, err := git(ctx, root, "worktree", "add", "--quiet", "--detach", tree, sha); err != nil {
		return false, err
	}
	defer git(context.Background(), root, "worktree", "remove", "--force", tree)

	var pkgs []string
	names := map[string][]string{}
	for _, r := range guarded {
		if names[r.pkg] == nil {
			pkgs = append(pkgs, r.pkg)
		}
		if !slices.Contains(names[r.pkg], r.bench) {
			names[r.pkg] = append(names[r.pkg], r.bench)
		}
	}
	baseSide, err := build(ctx, "base "+sha[:12], tree, filepath.Join(tmp, "bin-base"), pkgs)
	if err != nil {
		return false, err
	}
	headSide, err := build(ctx, "working tree", root, filepath.Join(tmp, "bin-head"), pkgs)
	if err != nil {
		return false, err
	}

	procs := runtime.GOMAXPROCS(0)
	for r := range rounds {
		fmt.Fprintf(os.Stderr, "benchguard: round %d/%d\n", r+1, rounds)
		order := []*side{baseSide, headSide}
		if r%2 == 1 {
			order[0], order[1] = headSide, baseSide
		}
		for _, p := range pkgs {
			for _, s := range order {
				if err := s.bench(ctx, p, pattern(names[p]), procs); err != nil {
					return false, err
				}
			}
		}
	}

	fmt.Fprintf(w, "%s vs %s: %d rounds at -benchtime %s, GOMAXPROCS %d, fail above x%.2f\n",
		headSide.name, baseSide.name, rounds, benchtime, procs, maxRatio)
	return report(w, judge(guarded, baseSide.samples, headSide.samples)), nil
}

func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// build compiles each package's test binary in the tree at root into bin.
func build(ctx context.Context, name, root, bin string, pkgs []string) (*side, error) {
	s := &side{name: name, root: root, bins: map[string]string{}, samples: samples{}}
	for i, p := range pkgs {
		if _, err := os.Stat(filepath.Join(root, p)); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		out := filepath.Join(bin, strconv.Itoa(i)+".test")
		cmd := exec.CommandContext(ctx, "go", "test", "-c", "-o", out, p)
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("build %s at %s: %w", p, name, err)
		}
		s.bins[p] = out
	}
	return s, nil
}

// bench runs the named benchmarks of one package once and records their
// results. Each runs in its package's directory, as under go test.
func (s *side) bench(ctx context.Context, pkg, pattern string, procs int) error {
	bin, ok := s.bins[pkg]
	if !ok {
		return nil
	}
	cmd := exec.CommandContext(ctx, bin, "-test.run=^$", "-test.bench="+pattern, "-test.benchmem",
		"-test.benchtime="+benchtime, "-test.cpu="+strconv.Itoa(procs), "-test.timeout=5m")
	cmd.Dir = filepath.Join(s.root, pkg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s benchmarks at %s: %w\n%s", pkg, s.name, err, out)
	}
	return parse(string(out), procs, s.samples)
}

// pattern is a -test.bench expression that selects exactly the named
// benchmarks: one alternative per name, each level of a sub-benchmark's
// name anchored on its own.
func pattern(names []string) string {
	alts := make([]string, len(names))
	for i, n := range names {
		alts[i] = "^" + strings.ReplaceAll(regexp.QuoteMeta(n), "/", "$/^") + "$"
	}
	return strings.Join(alts, "|")
}

// parse reads `go test -bench` output run with -test.cpu=procs and appends
// each result's values to s. A result's name carries -procs unless procs
// is 1; only that exact suffix is cut, so a sub-benchmark whose own name
// ends in -<digits> (edges-25) keeps its digits. Other lines are skipped.
func parse(out string, procs int, s samples) error {
	suffix := ""
	if procs != 1 {
		suffix = "-" + strconv.Itoa(procs)
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not a result: f[1] is the iteration count
		}
		name := strings.TrimSuffix(f[0], suffix)
		if s[name] == nil {
			s[name] = map[string][]float64{}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return fmt.Errorf("%s: bad value %q: %v", f[0], f[i], err)
			}
			s[name][f[i+1]] = append(s[name][f[i+1]], v)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of a
// non-empty xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		j := min(i+1, len(s)-1)
		return s[i] + (pos-float64(i))*(s[j]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdict is one row's outcome. base and head hold one value per round;
// base is empty for a new row and head for a missing one.
type verdict struct {
	row
	base, head []float64
	ratio      float64 // head median / base median
	worse      int     // rounds in which head read higher than base
	status     string  // ok, REGRESSION, MISSING or new
}

func judge(rows []row, base, head samples) []verdict {
	out := make([]verdict, len(rows))
	for i, r := range rows {
		v := verdict{row: r, base: base[r.bench][r.unit], head: head[r.bench][r.unit]}
		switch {
		case len(v.head) == 0:
			v.status = "MISSING"
		case len(v.base) == 0:
			v.status = "new"
		default:
			_, bm, _ := quartiles(v.base)
			_, hm, _ := quartiles(v.head)
			v.ratio = hm / bm
			for j := range min(len(v.base), len(v.head)) {
				if v.head[j] > v.base[j] {
					v.worse++
				}
			}
			v.status = "ok"
			if v.ratio > maxRatio {
				v.status = "REGRESSION"
			}
		}
		out[i] = v
	}
	return out
}

// report prints the verdict table and a closing line naming the worst
// ratio, and reports whether any row failed.
func report(w io.Writer, vs []verdict) (failed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunit\tbase median [q1 q3]\thead median [q1 q3]\tratio\thead higher\tverdict")
	var worst *verdict
	for i, v := range vs {
		ratio, worse := "-", "-"
		if v.status == "ok" || v.status == "REGRESSION" {
			ratio, worse = fmt.Sprintf("x%.3f", v.ratio), fmt.Sprintf("%d/%d", v.worse, min(len(v.base), len(v.head)))
			if worst == nil || v.ratio > worst.ratio {
				worst = &vs[i]
			}
		}
		failed = failed || v.status == "REGRESSION" || v.status == "MISSING"
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", v.bench, v.unit, spread(v.base), spread(v.head), ratio, worse, v.status)
	}
	tw.Flush()
	line := "PASS"
	if failed {
		line = "FAIL"
	}
	if worst != nil {
		line += fmt.Sprintf(" (worst x%.3f: %s %s)", worst.ratio, worst.bench, worst.unit)
	}
	fmt.Fprintln(w, "benchguard:", line)
	return failed
}

// spread formats a side's median and quartiles, or "-" when it has none.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.0f [%.0f %.0f]", med, q1, q3)
}
