package ingest

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

func testPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fixedClock keeps version timestamps identical across runs so store
// contents can be compared byte-for-byte.
func fixedClock() time.Time { return time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC) }

func writeTestCorpus(t testing.TB, n int) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := corpus.WriteCorpus(dir, n, 42); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestIngestDeterminism pins the reorder-buffer contract: one worker and
// many workers must produce byte-identical store contents — same IDs,
// names, companies, and payloads — so corpus analytics never depend on
// how the corpus was loaded.
func TestIngestDeterminism(t *testing.T) {
	dir := writeTestCorpus(t, 10)
	p := testPipeline(t)

	run := func(workers int) *store.Mem {
		st := store.NewMem(store.Options{Clock: fixedClock})
		sum, err := Run(context.Background(), p, st, dir, Options{Workers: workers, BatchSize: 3})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Ingested != 10 || sum.Skipped != 0 || len(sum.Failed) != 0 {
			t.Fatalf("workers=%d: summary %+v", workers, sum)
		}
		return st
	}
	serial, parallel := run(1), run(4)

	sl, _ := serial.List()
	pl, _ := parallel.List()
	if len(sl) != len(pl) {
		t.Fatalf("list lengths differ: %d vs %d", len(sl), len(pl))
	}
	for i := range sl {
		if sl[i] != pl[i] {
			t.Errorf("list[%d] differs:\n serial  %+v\n parallel %+v", i, sl[i], pl[i])
		}
		sv, err := serial.LoadPayload(sl[i].ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := parallel.LoadPayload(pl[i].ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sv, pv) {
			t.Errorf("%s payload differs between serial and parallel ingest", sl[i].ID)
		}
	}

	// Identical payloads must answer queries identically; spot-check one
	// decoded engine from each side.
	sv, _ := serial.LoadPayload(sl[0].ID, 1)
	pv, _ := parallel.LoadPayload(pl[0].ID, 1)
	sa, err := p.DecodeAnalysis(sv)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := p.DecodeAnalysis(pv)
	if err != nil {
		t.Fatal(err)
	}
	const q = "Do you share email addresses with advertisers?"
	sr, err := sa.Engine.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pa.Engine.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Verdict != pr.Verdict {
		t.Errorf("verdicts differ: serial %s, parallel %s", sr.Verdict, pr.Verdict)
	}
}

// TestIngestNeverEmbeds: ingest encodes each analysis without asking it
// anything, so no engine builds its vocabulary index; serving one of the
// stored analyses builds exactly one.
func TestIngestNeverEmbeds(t *testing.T) {
	dir := writeTestCorpus(t, 6)
	p := testPipeline(t)
	st := store.NewMem(store.Options{})
	sum, err := Run(context.Background(), p, st, dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ingested != 6 || len(sum.Failed) != 0 {
		t.Fatalf("summary %+v", sum)
	}
	builds := p.Obs().Histogram("quagmire_engine_index_seconds", obs.TimeBuckets)
	if n := builds.Count(); n != 0 {
		t.Errorf("ingest built %d vocabulary indexes, want 0", n)
	}
	pols, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := st.LoadPayload(pols[0].ID, pols[0].Versions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DecodeAnalysis(payload); err != nil {
		t.Fatal(err)
	}
	if n := builds.Count(); n != 1 {
		t.Errorf("decoding one stored analysis built %d vocabulary indexes, want 1", n)
	}
}

// TestIngestResume interrupts an ingest mid-corpus (SIGKILL-style: the
// disk store is abandoned without Close, so recovery replays the WAL)
// and checks the rerun picks up exactly where the commits stopped —
// zero re-analyzed, zero duplicated.
func TestIngestResume(t *testing.T) {
	dir := writeTestCorpus(t, 9)
	p := testPipeline(t)
	dataDir := t.TempDir()

	st, err := store.OpenDisk(dataDir, store.Options{Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sum1, err := Run(ctx, p, st, dir, Options{
		Workers:   2,
		BatchSize: 2,
		Progress: func(pr Progress) {
			if pr.Committed >= 4 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	if sum1.Ingested < 4 || sum1.Ingested >= 9 {
		t.Fatalf("interrupted run ingested %d, want mid-corpus", sum1.Ingested)
	}
	// Abandon st without Close: the committed batches live only in the WAL.

	st2, err := store.OpenDisk(dataDir, store.Options{Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sum2, err := Run(context.Background(), p, st2, dir, Options{Workers: 2, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Skipped != sum1.Ingested {
		t.Errorf("rerun skipped %d, want %d (everything the first run committed)", sum2.Skipped, sum1.Ingested)
	}
	if got := sum1.Ingested + sum2.Ingested; got != 9 {
		t.Errorf("total ingested across runs = %d, want 9", got)
	}

	// The store holds each corpus file exactly once, single-versioned.
	list, err := st2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 9 {
		t.Fatalf("final store has %d policies, want 9", len(list))
	}
	seen := map[string]bool{}
	for _, pol := range list {
		if seen[pol.Name] {
			t.Errorf("duplicate policy for %s", pol.Name)
		}
		seen[pol.Name] = true
		if pol.Versions != 1 {
			t.Errorf("%s has %d versions, want 1", pol.Name, pol.Versions)
		}
	}

	// A third run over the complete store is a pure no-op.
	sum3, err := Run(context.Background(), p, st2, dir, Options{Workers: 2, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum3.Ingested != 0 || sum3.Skipped != 9 {
		t.Errorf("no-op rerun = %+v, want 0 ingested / 9 skipped", sum3)
	}
}

// TestIngestDetectsChangedSources: a rerun over a corpus where some
// files changed re-analyzes exactly the changed ones, appending each as a
// new version of the existing policy — unchanged files skip by source
// hash, and nothing is duplicated.
func TestIngestDetectsChangedSources(t *testing.T) {
	dir := writeTestCorpus(t, 6)
	p := testPipeline(t)
	reg := obs.NewRegistry()
	st, err := store.OpenDisk(t.TempDir(), store.Options{Clock: fixedClock, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sum1, err := Run(context.Background(), p, st, dir, Options{Workers: 2, BatchSize: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Ingested != 6 || sum1.Updated != 0 {
		t.Fatalf("first run = %+v", sum1)
	}

	// Edit two corpus files; their next ingest must become version 2.
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) < 2 {
		t.Fatalf("corpus files: %v, %v", files, err)
	}
	sort.Strings(files)
	changed := map[string]bool{}
	for _, f := range files[:2] {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		edited := string(raw) + "\nWe also collect your postal address for shipping."
		if err := os.WriteFile(f, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		changed[filepath.Base(f)] = true
	}

	sum2, err := Run(context.Background(), p, st, dir, Options{Workers: 2, BatchSize: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Ingested != 0 || sum2.Updated != 2 || sum2.Skipped != 4 {
		t.Fatalf("rerun = %+v, want 0 ingested / 2 updated / 4 skipped", sum2)
	}
	if got := reg.Counter("quagmire_ingest_files_total", "status", "updated").Value(); got != 2 {
		t.Errorf("updated counter = %d, want 2", got)
	}

	list, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 6 {
		t.Fatalf("store has %d policies after rerun, want 6 (no duplicates)", len(list))
	}
	for _, pol := range list {
		want := 1
		if changed[pol.Name] {
			want = 2
		}
		if pol.Versions != want {
			t.Errorf("%s has %d versions, want %d", pol.Name, pol.Versions, want)
		}
		// Every latest version records its source hash and it matches the
		// file on disk now.
		v, err := st.Version(pol.ID, pol.Versions)
		if err != nil {
			t.Fatal(err)
		}
		h, err := hashSourceFile(filepath.Join(dir, filepath.FromSlash(pol.Name)))
		if err != nil {
			t.Fatal(err)
		}
		if v.SourceHash != h {
			t.Errorf("%s v%d source hash %q, file hash %q", pol.Name, pol.Versions, v.SourceHash, h)
		}
	}

	// Third run: everything now matches — a pure no-op.
	sum3, err := Run(context.Background(), p, st, dir, Options{Workers: 2, BatchSize: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sum3.Ingested != 0 || sum3.Updated != 0 || sum3.Skipped != 6 {
		t.Errorf("no-op rerun = %+v, want 6 skipped only", sum3)
	}
}

// TestIngestLegacyVersionsSkip: stored versions predating hash recording
// (empty SourceHash) always skip — a rerun must not re-analyze the whole
// corpus just because the store is old.
func TestIngestLegacyVersionsSkip(t *testing.T) {
	dir := writeTestCorpus(t, 3)
	p := testPipeline(t)
	st := store.NewMem(store.Options{Clock: fixedClock})
	if _, err := Run(context.Background(), p, st, dir, Options{}); err != nil {
		t.Fatal(err)
	}
	// Simulate a legacy store: re-create the policies without hashes.
	legacy := store.NewMem(store.Options{Clock: fixedClock})
	list, _ := st.List()
	for _, pol := range list {
		payload, err := st.LoadPayload(pol.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := st.Version(pol.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		v.SourceHash = ""
		v.Payload = payload
		if _, err := legacy.Create(pol.Name, v); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := Run(context.Background(), p, legacy, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 3 || sum.Ingested != 0 || sum.Updated != 0 {
		t.Errorf("legacy rerun = %+v, want 3 skipped", sum)
	}
}

// TestIngestDiscovery: nested directories are walked, names are
// slash-relative paths, non-policy extensions are ignored, and HTML is
// converted before analysis.
func TestIngestDiscovery(t *testing.T) {
	dir := t.TempDir()
	mustWrite := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("a/mini.txt", corpus.Mini())
	mustWrite("b/page.html", "<html><body><h1>Acme Privacy Policy</h1><p>We collect your email address.</p></body></html>")
	mustWrite("b/notes.json", `{"not": "a policy"}`)
	mustWrite("top.md", corpus.Mini())

	st := store.NewMem(store.Options{})
	reg := obs.NewRegistry()
	sum, err := Run(context.Background(), testPipeline(t), st, dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Discovered != 3 || sum.Ingested != 3 {
		t.Fatalf("summary = %+v, want 3 discovered and ingested", sum)
	}
	list, _ := st.List()
	want := []string{"a/mini.txt", "b/page.html", "top.md"}
	if len(list) != len(want) {
		t.Fatalf("stored %d policies, want %d", len(list), len(want))
	}
	for i, name := range want {
		if list[i].Name != name {
			t.Errorf("list[%d].Name = %q, want %q", i, list[i].Name, name)
		}
	}
	// The HTML policy really went through extraction: it has segments.
	for _, pol := range list {
		v, err := st.Version(pol.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v.Stats.Segments == 0 {
			t.Errorf("%s stored with zero segments", pol.Name)
		}
	}
	if got := reg.Counter("quagmire_ingest_files_total", "status", "ingested").Value(); got != 3 {
		t.Errorf("ingested counter = %d, want 3", got)
	}
}

// TestIngestBatchSizing: a corpus of N with batch size K issues
// ceil(N/K) durable appends — the fsync amortization the batch API
// exists for.
func TestIngestBatchSizing(t *testing.T) {
	dir := writeTestCorpus(t, 7)
	reg := obs.NewRegistry()
	st, err := store.OpenDisk(t.TempDir(), store.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sum, err := Run(context.Background(), testPipeline(t), st, dir, Options{Workers: 2, BatchSize: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Batches != 3 { // 3+3+1
		t.Errorf("batches = %d, want 3", sum.Batches)
	}
	if got := reg.Counter("quagmire_store_wal_syncs_total").Value(); got != 3 {
		t.Errorf("wal syncs = %d, want 3 (one per batch)", got)
	}
	if got := reg.Counter("quagmire_ingest_batches_total").Value(); got != 3 {
		t.Errorf("batch counter = %d, want 3", got)
	}
}

func TestIngestEmptyAndMissingCorpus(t *testing.T) {
	st := store.NewMem(store.Options{})
	p := testPipeline(t)
	sum, err := Run(context.Background(), p, st, t.TempDir(), Options{})
	if err != nil || sum.Discovered != 0 {
		t.Errorf("empty corpus = %+v, %v", sum, err)
	}
	if _, err := Run(context.Background(), p, st, filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Error("missing corpus dir did not error")
	}
}

// BenchmarkCorpusIngest measures end-to-end corpus ingestion at worker
// counts 1 and 8 over a generated corpus. Size via
// QUAGMIRE_INGEST_BENCH_FILES (default 12 to keep CI fast); on
// multi-core hosts the workers=8 case demonstrates the parallel
// speedup, on GOMAXPROCS=1 hosts the two land within noise of each
// other (the pipeline is CPU-bound).
func BenchmarkCorpusIngest(b *testing.B) {
	n := 12
	if s := os.Getenv("QUAGMIRE_INGEST_BENCH_FILES"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 1 {
			b.Fatalf("bad QUAGMIRE_INGEST_BENCH_FILES %q", s)
		}
	}
	dir := b.TempDir()
	if _, err := corpus.WriteCorpus(dir, n, 42); err != nil {
		b.Fatal(err)
	}
	p := testPipeline(b)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := store.OpenDisk(b.TempDir(), store.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sum, err := Run(context.Background(), p, st, dir, Options{Workers: workers, BatchSize: 32})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Ingested != n {
					b.Fatalf("ingested %d, want %d", sum.Ingested, n)
				}
				st.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "policies/s")
		})
	}
}
