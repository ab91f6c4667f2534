package server

// BenchmarkRecoveryBoot measures server boot against a populated disk
// store in two modes:
//
//	lazy    index metadata only, no warmer — boot-to-first-byte
//	warmed  lazy boot plus waiting for the background warmer — boot-to-hot
//
// The point of lazy recovery is that "lazy" stays flat as the policy count
// grows, while "warmed" decodes and builds every engine and so bounds the
// total background work. The seeded directory is a cleanly-compacted
// snapshot, so both modes boot through the indexed open path (header +
// metadata index, payloads lazy behind LoadPayload). BENCH_PR7.json and
// BENCH_PR9.json guard these legs. EXPERIMENTS.md E15 runs the same sweep
// at 100/1k scale; E17 isolates the format A/B.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// recoveryBenchSizes returns the store sizes to sweep: {8, 64} by default
// (kept small for CI), overridable for corpus-scale runs like E15 with
// e.g. QUAGMIRE_RECOVERY_BENCH_SIZES=100,1000.
func recoveryBenchSizes(b *testing.B) []int {
	env := os.Getenv("QUAGMIRE_RECOVERY_BENCH_SIZES")
	if env == "" {
		return []int{8, 64}
	}
	var sizes []int
	for _, s := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			b.Fatalf("bad QUAGMIRE_RECOVERY_BENCH_SIZES entry %q", s)
		}
		sizes = append(sizes, n)
	}
	return sizes
}

func BenchmarkRecoveryBoot(b *testing.B) {
	for _, n := range recoveryBenchSizes(b) {
		dir := b.TempDir()
		seedStoreDirect(b, dir, n, false)
		for _, mode := range []struct {
			name string
			rec  RecoveryOptions
			warm bool
		}{
			{"lazy", RecoveryOptions{WarmWorkers: -1}, false},
			{"warmed", RecoveryOptions{WarmWorkers: 2}, true},
		} {
			b.Run(fmt.Sprintf("%s/policies-%d", mode.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p, err := core.New(core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					st, err := store.OpenDisk(dir, store.Options{Obs: p.Obs()})
					if err != nil {
						b.Fatal(err)
					}
					s, err := New(Options{Pipeline: p, Store: st, Recovery: mode.rec})
					if err != nil {
						b.Fatal(err)
					}
					if mode.warm {
						<-s.warmDone
					}
					b.StopTimer()
					s.Close()
					if err := st.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}
