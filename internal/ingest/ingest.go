// Package ingest is the corpus-scale bulk write path: it streams a
// directory of policy files through a bounded worker pipeline
// (read → analyze → encode), commits results to the store in batched,
// file-ordered appends, and resumes interrupted runs from the store
// itself. The per-request path (POST /v1/policies) analyzes one policy
// inline and fsyncs per create; this path amortizes both the analysis
// (N workers) and the durability cost (store.AppendBatch fsyncs once
// per batch) across a whole corpus.
//
// Resumability needs no side checkpoint file: each policy is stored
// under its corpus-relative source path as the name, and a policy only
// becomes visible after its batch is durably logged. A rerun lists the
// store, skips every path already present, and re-analyzes only the
// tail the interrupt cut off — completed policies are never re-analyzed
// or duplicated.
//
// Reruns are also incremental in content, not just in presence: every
// stored version records the SHA-256 of its source document, and a rerun
// compares that hash against the file on disk. An unchanged file skips;
// a changed one is re-analyzed and appended as a new version of the same
// policy, so periodic re-crawls accumulate version history instead of
// duplicating policies or silently serving stale analyses.
//
// Determinism: the committer holds a reorder buffer keyed by discovery
// sequence and commits strictly in file order, so batch boundaries,
// assigned policy IDs, and store contents are identical whether the
// corpus was ingested with one worker or many.
package ingest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/htmltext"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// exts are the file extensions treated as policy documents; HTML files
// run through htmltext before analysis.
var exts = map[string]bool{".txt": true, ".md": true, ".html": true, ".htm": true}

// Options configures an ingest run. The zero value is usable: one
// worker, batches of 16, no logging or metrics.
type Options struct {
	// Workers is the number of concurrent analysis workers; <1 selects 1.
	Workers int
	// BatchSize is the number of policies committed per durable store
	// append (one WAL fsync each); <1 selects 16.
	BatchSize int
	// Obs receives quagmire_ingest_* metrics; nil disables.
	Obs *obs.Registry
	// Logger receives per-file failure warnings; nil disables.
	Logger *log.Logger
	// Progress, when set, is called after every committed batch with the
	// running totals. Callers use it for live reporting; tests use it to
	// interrupt a run at a known point.
	Progress func(Progress)
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

func (o Options) batchSize() int {
	if o.BatchSize < 1 {
		return 16
	}
	return o.BatchSize
}

func (o Options) logf(format string, args ...any) {
	if o.Logger != nil {
		o.Logger.Printf(format, args...)
	}
}

// Progress is the running state reported after each committed batch or
// version update.
type Progress struct {
	// Committed counts policies durably stored by this run so far.
	Committed int
	// Updated counts policies whose source changed and gained a new
	// version this run.
	Updated int
	// Skipped counts files already present and unchanged.
	Skipped int
	// Failed counts files whose analysis failed this run.
	Failed int
	// Total counts every policy file discovered in the corpus.
	Total int
}

// FileError records one file that failed to ingest.
type FileError struct {
	// Path is the corpus-relative file path.
	Path string
	// Err is the read or analysis failure.
	Err error
}

func (e FileError) Error() string { return fmt.Sprintf("%s: %v", e.Path, e.Err) }

// Summary reports a completed (or interrupted) run.
type Summary struct {
	// Discovered counts every policy file found in the corpus.
	Discovered int
	// Ingested counts policies durably committed by this run.
	Ingested int
	// Updated counts existing policies whose source content changed and
	// were appended as a new version.
	Updated int
	// Skipped counts files resumed past (already in the store with
	// unchanged content).
	Skipped int
	// Batches counts durable store appends (≈ WAL fsyncs) issued.
	Batches int
	// Failed lists files whose analysis failed; they stay absent from the
	// store, so a rerun retries them.
	Failed []FileError
}

// job is one file heading into the worker pool; seq is its position in
// the sorted discovery order. A non-empty updateID marks a re-ingest of
// a changed source: the result appends to that policy (CAS on expect)
// instead of creating a new one.
type job struct {
	seq      int
	rel      string
	path     string
	updateID string
	expect   int
}

// result is one analyzed file heading into the committer.
type result struct {
	seq      int
	rel      string
	updateID string
	expect   int
	entry    store.BatchEntry
	err      error
}

// Run ingests every policy file under dir into st, analyzing with p.
// It returns the summary of what this run did; on context cancellation
// it stops promptly and returns ctx.Err() alongside the partial summary
// (everything already committed stays durable, and a rerun resumes).
func Run(ctx context.Context, p *core.Pipeline, st store.PolicyStore, dir string, opts Options) (Summary, error) {
	var sum Summary
	files, err := discover(dir)
	if err != nil {
		return sum, err
	}
	sum.Discovered = len(files)

	// Resume: every policy name already in the store is a file a prior
	// run durably completed. Unchanged content (same source hash) skips;
	// changed content becomes an update job appending the next version.
	// Versions predating hash recording carry no hash and always skip —
	// indistinguishable from unchanged, and never worth re-analyzing on
	// every rerun.
	existing, err := st.List()
	if err != nil {
		return sum, fmt.Errorf("ingest: list store for resume: %w", err)
	}
	done := make(map[string]store.Policy, len(existing))
	for _, pol := range existing {
		done[pol.Name] = pol
	}
	var jobs []job
	for _, rel := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		pol, present := done[rel]
		if !present {
			jobs = append(jobs, job{seq: len(jobs), rel: rel, path: path})
			continue
		}
		latest, err := st.Version(pol.ID, pol.Versions)
		if err != nil {
			return sum, fmt.Errorf("ingest: read %s v%d for resume: %w", pol.ID, pol.Versions, err)
		}
		changed := false
		if latest.SourceHash != "" {
			// A file that cannot be hashed now goes to the workers, which
			// surface the read failure through the normal Failed path.
			h, err := hashSourceFile(path)
			changed = err != nil || h != latest.SourceHash
		}
		if !changed {
			sum.Skipped++
			opts.Obs.Counter("quagmire_ingest_files_total", "status", "skipped").Inc()
			continue
		}
		jobs = append(jobs, job{seq: len(jobs), rel: rel, path: path, updateID: pol.ID, expect: pol.Versions})
	}
	if len(jobs) == 0 {
		return sum, nil
	}

	workers := opts.workers()
	jobCh := make(chan job)
	resCh := make(chan result, workers)

	// Feeder: closes jobCh when the corpus is exhausted or ctx fires.
	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			select {
			case jobCh <- j:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: read, analyze, encode. Failures travel to the committer
	// as results so ordering stays intact.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				r := result{seq: j.seq, rel: j.rel, updateID: j.updateID, expect: j.expect}
				r.entry, r.err = analyzeFile(ctx, p, j, opts)
				select {
				case resCh <- r:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(resCh) }()

	// Committer: reorder results back into discovery order and flush
	// full batches. The buffer is naturally bounded by workers plus
	// channel capacity, so memory stays flat on huge corpora.
	pending := make(map[int]result)
	batch := make([]store.BatchEntry, 0, opts.batchSize())
	next := 0
	report := func() {
		if opts.Progress != nil {
			opts.Progress(Progress{
				Committed: sum.Ingested, Updated: sum.Updated, Skipped: sum.Skipped,
				Failed: len(sum.Failed), Total: sum.Discovered,
			})
		}
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := st.AppendBatch(batch); err != nil {
			return fmt.Errorf("ingest: commit batch: %w", err)
		}
		sum.Ingested += len(batch)
		sum.Batches++
		opts.Obs.Counter("quagmire_ingest_batches_total").Inc()
		opts.Obs.Counter("quagmire_ingest_files_total", "status", "ingested").Add(uint64(len(batch)))
		opts.Obs.Histogram("quagmire_ingest_batch_policies", obs.CountBuckets).Observe(float64(len(batch)))
		batch = batch[:0]
		report()
		return nil
	}
	for r := range resCh {
		pending[r.seq] = r
		for {
			rr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if rr.err != nil {
				sum.Failed = append(sum.Failed, FileError{Path: rr.rel, Err: rr.err})
				opts.Obs.Counter("quagmire_ingest_files_total", "status", "failed").Inc()
				opts.logf("ingest: %s: %v", rr.rel, rr.err)
				continue
			}
			if rr.updateID != "" {
				// Version updates append individually (CAS on the version
				// count seen at scan time) in discovery order. Flush the
				// pending creates first so the WAL keeps file order.
				if err := flush(); err != nil {
					return sum, err
				}
				if _, err := st.Append(rr.updateID, rr.expect, rr.entry.Version); err != nil {
					return sum, fmt.Errorf("ingest: update %s: %w", rr.rel, err)
				}
				sum.Updated++
				opts.Obs.Counter("quagmire_ingest_files_total", "status", "updated").Inc()
				report()
				continue
			}
			batch = append(batch, rr.entry)
			if len(batch) >= opts.batchSize() {
				if err := flush(); err != nil {
					return sum, err
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		// Interrupted: leave the partial batch uncommitted — a rerun
		// re-analyzes exactly the unacknowledged tail, nothing else.
		return sum, err
	}
	if err := flush(); err != nil {
		return sum, err
	}
	return sum, nil
}

// hashSourceFile returns the hex SHA-256 of a source document's raw
// bytes — the change detector for incremental re-ingest.
func hashSourceFile(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// analyzeFile turns one corpus file into a ready-to-commit batch entry.
func analyzeFile(ctx context.Context, p *core.Pipeline, j job, opts Options) (store.BatchEntry, error) {
	raw, err := os.ReadFile(j.path)
	if err != nil {
		return store.BatchEntry{}, err
	}
	srcSum := sha256.Sum256(raw)
	text := string(raw)
	if ext := strings.ToLower(filepath.Ext(j.path)); ext == ".html" || ext == ".htm" {
		text = htmltext.Extract(text)
	}
	start := time.Now()
	a, err := p.Analyze(ctx, text)
	if err != nil {
		return store.BatchEntry{}, fmt.Errorf("analyze: %w", err)
	}
	opts.Obs.Histogram("quagmire_ingest_analyze_seconds", obs.TimeBuckets).ObserveSince(start)
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		return store.BatchEntry{}, fmt.Errorf("encode: %w", err)
	}
	return store.BatchEntry{
		Name: j.rel,
		Version: store.Version{
			VersionMeta: store.VersionMeta{
				Company:    a.Extraction.Company,
				SourceHash: hex.EncodeToString(srcSum[:]),
				Stats:      a.VersionStats(),
			},
			Payload: payload,
		},
	}, nil
}

// discover walks dir and returns the corpus-relative (slash-separated)
// paths of every policy file, sorted — the canonical ingest order.
func discover(dir string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !exts[strings.ToLower(filepath.Ext(path))] {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files = append(files, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: walk corpus %s: %w", dir, err)
	}
	sort.Strings(files)
	return files, nil
}
