package store

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// BenchmarkSnapshotOpen measures OpenDisk against an indexed v2 snapshot:
// recovery reads the header and metadata index, and payloads stay on disk
// behind LoadPayload. Each policy holds one version whose payload carries
// 2KiB of filler to model real analysis envelopes. E17 in EXPERIMENTS.md
// runs this sweep at 100/1k; sizes are overridable for larger runs with
// e.g. QUAGMIRE_SNAPSHOT_BENCH_SIZES=100,1000,10000.

const snapshotBenchPayloadPad = 2048

func snapshotBenchSizes(b *testing.B) []int {
	env := os.Getenv("QUAGMIRE_SNAPSHOT_BENCH_SIZES")
	if env == "" {
		return []int{100, 1000}
	}
	var sizes []int
	for _, s := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			b.Fatalf("bad QUAGMIRE_SNAPSHOT_BENCH_SIZES entry %q", s)
		}
		sizes = append(sizes, n)
	}
	return sizes
}

// writeSnapshotBenchDir fills dir with n single-version policies in one
// batch and closes the store, which compacts them into snapshot.v2. The
// names, companies, payload bytes and fixed clock reproduce the snapshot
// BENCH_PR9.json's rows were recorded against (then made by migrating a
// v1 fixture), so B/op and allocs/op stay comparable.
func writeSnapshotBenchDir(b *testing.B, dir string, n int) {
	b.Helper()
	created := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	d, err := OpenDisk(dir, Options{Clock: func() time.Time { return created }})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]BatchEntry, n)
	for i := range entries {
		company := fmt.Sprintf("LegacyCo%d", i+1)
		payload := fmt.Sprintf(`{"codec":1,"legacy":true,"policy":%d,"version":1}`, i+1) +
			strings.Repeat("x", snapshotBenchPayloadPad)
		entries[i] = BatchEntry{
			Name:    fmt.Sprintf("legacy-%d.txt", i+1),
			Version: Version{VersionMeta: VersionMeta{Company: company}, Payload: []byte(payload)},
		}
	}
	if _, err := d.AppendBatch(entries); err != nil {
		b.Fatal(err)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSnapshotOpen(b *testing.B) {
	for _, n := range snapshotBenchSizes(b) {
		b.Run(fmt.Sprintf("v2/policies-%d", n), func(b *testing.B) {
			dir := b.TempDir()
			writeSnapshotBenchDir(b, dir, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := OpenDisk(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				// Nothing changed, so Close skips compaction; the v2
				// snapshot is reused as-is by the next iteration.
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
