// Package extract implements Phase 1 of the pipeline: company-name
// extraction, coreference resolution, segmentation and LLM-based semantic
// role extraction — Algorithm 1 lines 1–10. Each extracted data practice
// carries its source segment ID, so a new policy version re-extracts only
// the statements it changed.
package extract

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/segment"
)

// Practice is one extracted data practice: the six semantic roles plus
// provenance, detected vague terms, and the OPP-115 categories of its
// source statement (Algorithm 1 line 8, Match(s, T)).
type Practice struct {
	llm.ParamSet
	// SegmentID identifies the policy segment the practice came from.
	SegmentID string `json:"segment_id"`
	// VagueTerms lists the undefined condition fragments to surface as
	// uninterpreted predicates.
	VagueTerms []string `json:"vague_terms,omitempty"`
	// OPPCategories are the OPP-115 top-level categories matched against
	// the source statement.
	OPPCategories []string `json:"opp_categories,omitempty"`
}

// Extraction is the Phase 1 output for one policy version.
type Extraction struct {
	// Company is the extracted organization name.
	Company string `json:"company"`
	// Segments are the policy's statements whose extraction succeeded, in
	// order. A statement whose extraction failed is left out, so the next
	// version's ReExtract retries it.
	Segments []segment.Segment `json:"segments"`
	// Practices are all extracted data practices, in statement order: each
	// occurrence of a repeated statement contributes its own.
	Practices []Practice `json:"practices"`
	// SegmentErrors aggregates (errors.Join) the per-segment failures that
	// were skipped with degradation; nil when every segment extracted
	// cleanly. Not serialized.
	SegmentErrors error `json:"-"`
}

// Stats reports extraction effort.
type Stats struct {
	// Segments counts statements processed.
	Segments int
	// Practices counts extracted parameter sets.
	Practices int
	// LLMCalls counts model invocations.
	LLMCalls int
	// Errors counts segments whose extraction failed (skipped with
	// degradation, as production pipelines must).
	Errors int
}

// Extractor runs Phase 1 against a language model.
type Extractor struct {
	// Client is the language model; required.
	Client llm.Client
	// Workers is the number of segments extracted in parallel; 0 selects
	// runtime.GOMAXPROCS(0), 1 forces sequential extraction. The model
	// client must be safe for concurrent use (every llm client is).
	Workers int
	// FailFast aborts the whole extraction on the first segment error,
	// cancelling in-flight siblings, instead of skipping failed segments
	// with degradation. The returned error joins every segment failure
	// observed before the cancellation took effect.
	FailFast bool
	// Stats accumulates counters across calls. Mutations are guarded by an
	// internal mutex so extractions may run concurrently; read it only when
	// no call is in flight.
	Stats Stats
	// Obs, when non-nil, receives extraction metrics (segment throughput,
	// LLM-call latency, coreference passes, per-policy wall time). A nil
	// registry hands out nil handles whose methods no-op, so every hook
	// below is safe unconditionally.
	Obs *obs.Registry

	statsMu sync.Mutex
}

// addStats folds a per-call delta into the shared counters.
func (e *Extractor) addStats(d Stats) {
	e.statsMu.Lock()
	e.Stats.Segments += d.Segments
	e.Stats.Practices += d.Practices
	e.Stats.LLMCalls += d.LLMCalls
	e.Stats.Errors += d.Errors
	e.statsMu.Unlock()
	e.Obs.Counter("quagmire_extract_segments_total").Add(uint64(d.Segments))
	e.Obs.Counter("quagmire_extract_practices_total").Add(uint64(d.Practices))
	e.Obs.Counter("quagmire_extract_llm_calls_total").Add(uint64(d.LLMCalls))
	e.Obs.Counter("quagmire_extract_errors_total").Add(uint64(d.Errors))
}

// New returns an extractor over the given client.
func New(client llm.Client) *Extractor { return &Extractor{Client: client} }

// CompanyName extracts the organization name from the policy's opening
// 1000 characters (Algorithm 1 line 2).
func (e *Extractor) CompanyName(ctx context.Context, policy string) (string, error) {
	e.addStats(Stats{LLMCalls: 1})
	resp, err := e.Client.Complete(ctx, llm.CompanyNamePrompt(policy))
	if err != nil {
		return "", fmt.Errorf("extract: company name: %w", err)
	}
	var out struct {
		Company string `json:"company"`
	}
	if err := json.Unmarshal([]byte(resp.Text), &out); err != nil || out.Company == "" {
		return "", fmt.Errorf("extract: company name: %w: %q", llm.ErrMalformedOutput, resp.Text)
	}
	return out.Company, nil
}

// ResolveCoreferences replaces first-person references ("we", "us", "our")
// with the company name (Algorithm 1 line 3). Replacement is word-boundary
// aware and case-insensitive.
func ResolveCoreferences(text, company string) string {
	if company == "" {
		return text
	}
	var b strings.Builder
	b.Grow(len(text))
	i := 0
	for i < len(text) {
		j := i
		for j < len(text) && isLetter(text[j]) {
			j++
		}
		if j == i {
			b.WriteByte(text[i])
			i++
			continue
		}
		word := text[i:j]
		switch strings.ToLower(word) {
		case "we", "us":
			b.WriteString(company)
		case "our":
			b.WriteString(company + "'s")
		case "ourselves":
			b.WriteString(company)
		default:
			b.WriteString(word)
		}
		i = j
	}
	return b.String()
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// ExtractSegment extracts the data practices of one coreference-resolved
// segment (Algorithm 1 line 7).
func (e *Extractor) ExtractSegment(ctx context.Context, company string, seg segment.Segment) ([]Practice, error) {
	e.addStats(Stats{LLMCalls: 1})
	return e.extractOne(ctx, company, seg)
}

// ExtractPolicy runs full Phase 1 over a policy text: company name,
// segmentation, per-segment extraction over the worker pool. It is
// ReExtract from an empty extraction.
func (e *Extractor) ExtractPolicy(ctx context.Context, policy string) (*Extraction, error) {
	ex, _, err := e.ReExtract(ctx, &Extraction{}, policy)
	return ex, err
}

// workerCount resolves the effective pool size.
func (e *Extractor) workerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// extractAll runs per-segment extraction over a bounded worker pool.
// Results are positionally aligned with segs so output order is
// deterministic regardless of scheduling. Cancelling ctx — or, under
// FailFast, the first segment failure — cancels in-flight siblings;
// unattempted segments report the context error.
func (e *Extractor) extractAll(ctx context.Context, company string, segs []segment.Segment) ([][]Practice, []error) {
	results := make([][]Practice, len(segs))
	errs := make([]error, len(segs))
	if len(segs) == 0 {
		return results, errs
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := e.workerCount()
	if workers > len(segs) {
		workers = len(segs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = e.extractOne(ctx, company, segs[i])
				if errs[i] != nil && e.FailFast {
					cancel()
				}
			}
		}()
	}
	// Workers drain the channel even after cancellation (marking skipped
	// jobs with the context error), so dispatch never blocks indefinitely.
	for i := range segs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, errs
}

// extractOne is ExtractSegment without stats mutation, safe for concurrent
// use.
func (e *Extractor) extractOne(ctx context.Context, company string, seg segment.Segment) ([]Practice, error) {
	resolved := ResolveCoreferences(seg.Text, company)
	e.Obs.ShardedCounter("quagmire_extract_coref_passes_total").Inc()
	llmStart := time.Now()
	resp, err := e.Client.Complete(ctx, llm.ExtractParamsPrompt(company, resolved))
	e.Obs.Histogram("quagmire_llm_call_seconds", obs.TimeBuckets, "phase", "extract").ObserveSince(llmStart)
	if err != nil {
		return nil, fmt.Errorf("extract: segment %s: %w", shortID(seg.ID), err)
	}
	var params []llm.ParamSet
	if err := json.Unmarshal([]byte(resp.Text), &params); err != nil {
		return nil, fmt.Errorf("extract: segment %s: %w: %q", shortID(seg.ID), llm.ErrMalformedOutput, resp.Text)
	}
	categories := corpus.MatchOPP115(seg.Text)
	out := make([]Practice, 0, len(params))
	for _, p := range params {
		out = append(out, Practice{
			ParamSet:      p,
			SegmentID:     seg.ID,
			VagueTerms:    llm.VagueTerms(p.Condition),
			OPPCategories: categories,
		})
	}
	return out, nil
}

// ReExtract extracts a new policy version, re-running the model only on
// the statements prev holds no practices for (the paper's diff-based
// incremental processing), fanned out over the worker pool. Statements
// whose extraction fails are counted and skipped rather than aborting the
// run (unless FailFast is set); the joined failures are reported on
// Extraction.SegmentErrors either way. It returns the new extraction and
// the statement diff from prev.
func (e *Extractor) ReExtract(ctx context.Context, prev *Extraction, newPolicy string) (*Extraction, segment.Diff, error) {
	defer e.Obs.Histogram("quagmire_extract_policy_seconds", obs.TimeBuckets).ObserveSince(time.Now())
	company, err := e.CompanyName(ctx, newPolicy)
	if err != nil {
		return nil, segment.Diff{}, err
	}
	newSegs := segment.Split(newPolicy)
	diff := segment.Compare(prev.Segments, newSegs)
	var reuse map[string][]Practice
	if company == prev.Company {
		reuse = prev.reuseIndex()
	}
	// Collect the segments that actually need model calls, in order.
	var todo []segment.Segment
	for _, seg := range newSegs {
		if _, ok := reuse[seg.ID]; !ok {
			todo = append(todo, seg)
		}
	}
	results, errs := e.extractAll(ctx, company, todo)
	var d Stats
	defer func() { e.addStats(d) }()
	d.LLMCalls += len(todo)
	ex := &Extraction{Company: company}
	ti := 0
	var segErrs []error
	for _, seg := range newSegs {
		ps, ok := reuse[seg.ID]
		if !ok {
			d.Segments++
			var segErr error
			ps, segErr = results[ti], errs[ti]
			ti++
			if segErr != nil {
				if ctx.Err() != nil {
					return nil, diff, ctx.Err()
				}
				d.Errors++
				// Sibling aborts from a fail-fast cancellation are not
				// segment failures in their own right.
				if !errors.Is(segErr, context.Canceled) {
					segErrs = append(segErrs, segErr)
				}
				continue
			}
			d.Practices += len(ps)
		}
		ex.Segments = append(ex.Segments, seg)
		ex.Practices = append(ex.Practices, ps...)
	}
	ex.SegmentErrors = errors.Join(segErrs...)
	if e.FailFast && ex.SegmentErrors != nil {
		return nil, diff, ex.SegmentErrors
	}
	return ex, diff, nil
}

// reuseIndex maps each statement of the extraction to the practices of
// one of its occurrences, which a later version reuses for the same
// statement. Practices follow the statement order, and a statement that
// occurs n times holds n copies of its practices, so one occurrence's are
// the first 1/n of them.
func (ex *Extraction) reuseIndex() map[string][]Practice {
	occurrences := make(map[string]int, len(ex.Segments))
	bySeg := make(map[string][]Practice, len(ex.Segments))
	for _, seg := range ex.Segments {
		occurrences[seg.ID]++
		bySeg[seg.ID] = nil
	}
	for _, p := range ex.Practices {
		if occurrences[p.SegmentID] > 0 {
			bySeg[p.SegmentID] = append(bySeg[p.SegmentID], p)
		}
	}
	for id, ps := range bySeg {
		bySeg[id] = ps[:len(ps)/occurrences[id]]
	}
	return bySeg
}

func shortID(id string) string {
	if len(id) > 8 {
		return id[:8]
	}
	return id
}
