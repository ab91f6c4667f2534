package server

// Cross-policy corpus analytics: aggregate statistics over every stored
// policy and compliance-query fan-out across the whole corpus. The
// paper's thesis is that ambiguity shows up when interpretations are
// compared *across* policies; these endpoints are where that comparison
// happens. Both fan out over each policy's latest engine through a
// bounded worker pool — a corpus of thousands of policies never spawns
// thousands of goroutines — and each policy gets its own deadline so one
// pathological engine cannot starve the rest of the sweep. The query
// endpoint streams NDJSON results as they land rather than buffering the
// corpus in memory; the whole fan-out occupies one solver admission slot.

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// DefaultCorpusPolicyTimeout bounds one policy's share of a corpus
// query: long enough for a cold engine build plus a solve, short enough
// that a resource-out on one policy costs the sweep seconds, not the
// whole request budget.
const DefaultCorpusPolicyTimeout = 5 * time.Second

// CorpusConfig bounds the cross-policy fan-out endpoints.
type CorpusConfig struct {
	// Workers is the fan-out pool size; 0 selects max(2, GOMAXPROCS).
	Workers int
	// PolicyTimeout is the per-policy deadline inside a corpus query;
	// 0 selects DefaultCorpusPolicyTimeout, negative disables.
	PolicyTimeout time.Duration
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.Workers <= 0 {
		c.Workers = max(2, runtime.GOMAXPROCS(0))
	}
	c.PolicyTimeout = normalizeTimeout(c.PolicyTimeout, DefaultCorpusPolicyTimeout)
	return c
}

// forEachPolicy runs fn over pols through a bounded worker pool,
// stopping early when ctx expires. It returns how many policies were
// dispatched before the context fired.
func (s *Server) forEachPolicy(ctx context.Context, pols []store.Policy, fn func(store.Policy)) int {
	workers := s.corpus.Workers
	if workers > len(pols) {
		workers = len(pols)
	}
	jobs := make(chan store.Policy)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				fn(it)
			}
		}()
	}
	dispatched := 0
	for _, p := range pols {
		select {
		case jobs <- p:
			dispatched++
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return dispatched
		}
	}
	close(jobs)
	wg.Wait()
	return dispatched
}

// termCount is one (term, counts) aggregate row.
type termCount struct {
	Term string `json:"term"`
	// Policies is the number of distinct policies the term appears in.
	Policies int `json:"policies"`
	// Occurrences is the total occurrence count (0 where not meaningful).
	Occurrences int `json:"occurrences,omitempty"`
}

// corpusStatsResponse is the GET /v1/corpus/stats payload.
type corpusStatsResponse struct {
	// Policies and Versions count the stored corpus; Segments, Practices
	// and Edges are totals from stored version metadata (they include
	// quarantined policies, whose stats persisted even though their
	// payloads no longer decode).
	Policies  int `json:"policies"`
	Versions  int `json:"versions"`
	Segments  int `json:"segments"`
	Practices int `json:"practices"`
	Edges     int `json:"edges"`
	// Analyzed counts policies whose engines were available or built for
	// this sweep; Quarantined counts policies excluded by decode failure.
	Analyzed    int `json:"analyzed"`
	Quarantined int `json:"quarantined"`
	// DistinctDataTypes and DistinctEntities are corpus-wide vocabulary
	// sizes over the analyzed policies.
	DistinctDataTypes int `json:"distinct_data_types"`
	DistinctEntities  int `json:"distinct_entities"`
	// TopVague ranks vague conditions by how many policies lean on them —
	// the cross-policy ambiguity hot spots.
	TopVague []termCount `json:"top_vague"`
	// TaxonomyOverlap ranks data types by how many policies collect them.
	TaxonomyOverlap []termCount `json:"taxonomy_overlap"`
}

const corpusTopN = 10

func (s *Server) handleCorpusStats(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	pols, err := s.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store list failed: %v", err)
		return
	}
	reg := s.pipeline.Obs()
	reg.Counter("quagmire_corpus_stats_total").Inc()

	resp := corpusStatsResponse{Policies: len(pols)}
	for _, p := range pols {
		v, err := s.store.Version(p.ID, p.Versions)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "store read failed: %v", err)
			return
		}
		resp.Versions += p.Versions
		resp.Segments += v.Stats.Segments
		resp.Practices += v.Stats.Practices
		resp.Edges += v.Stats.Edges
	}

	// Vocabulary aggregation needs decoded analyses; build them through
	// the bounded pool (a warm corpus skips straight to the cached
	// engines) and merge per-policy term sets under one lock.
	var mu sync.Mutex
	vaguePolicies := map[string]int{}
	vagueOccurrences := map[string]int{}
	dataTypePolicies := map[string]int{}
	entities := map[string]bool{}
	s.forEachPolicy(r.Context(), pols, func(p store.Policy) {
		a, err := s.engine(p, p.Versions, "corpus")
		if err != nil {
			mu.Lock()
			resp.Quarantined++
			mu.Unlock()
			return
		}
		vague := map[string]int{}
		for _, p := range a.Extraction.Practices {
			for _, v := range p.VagueTerms {
				vague[v]++
			}
		}
		types := a.KG.DataTypes()
		ents := a.KG.Entities()
		mu.Lock()
		resp.Analyzed++
		for term, n := range vague {
			vaguePolicies[term]++
			vagueOccurrences[term] += n
		}
		for _, t := range types {
			dataTypePolicies[t]++
		}
		for _, e := range ents {
			entities[e] = true
		}
		mu.Unlock()
	})

	resp.DistinctDataTypes = len(dataTypePolicies)
	resp.DistinctEntities = len(entities)
	resp.TopVague = topTerms(vaguePolicies, vagueOccurrences, corpusTopN)
	resp.TaxonomyOverlap = topTerms(dataTypePolicies, nil, corpusTopN)
	reg.Histogram("quagmire_corpus_sweep_seconds", obs.TimeBuckets, "op", "stats").ObserveSince(start)
	writeJSON(w, http.StatusOK, resp)
}

// topTerms ranks terms by policy count (ties break lexicographically,
// keeping the response deterministic) and returns the top n.
func topTerms(policies, occurrences map[string]int, n int) []termCount {
	out := make([]termCount, 0, len(policies))
	for term, p := range policies {
		tc := termCount{Term: term, Policies: p}
		if occurrences != nil {
			tc.Occurrences = occurrences[term]
		}
		out = append(out, tc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Policies != out[j].Policies {
			return out[i].Policies > out[j].Policies
		}
		return out[i].Term < out[j].Term
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// corpusQueryRequest is the POST /v1/corpus/query body.
type corpusQueryRequest struct {
	Query string `json:"query"`
}

// corpusQueryLine is one streamed NDJSON result row.
type corpusQueryLine struct {
	ID            string        `json:"id"`
	Name          string        `json:"name"`
	Company       string        `json:"company,omitempty"`
	Verdict       query.Verdict `json:"verdict,omitempty"`
	Cause         string        `json:"cause,omitempty"`
	ConditionalOn []string      `json:"conditional_on,omitempty"`
	Error         string        `json:"error,omitempty"`
}

// corpusQuerySummary is the final NDJSON line of a corpus query, wrapped
// in {"summary": ...} so stream consumers can tell it from result rows.
type corpusQuerySummary struct {
	Policies int   `json:"policies"`
	Valid    int   `json:"valid"`
	Invalid  int   `json:"invalid"`
	Unknown  int   `json:"unknown"`
	Errors   int   `json:"errors"`
	Elapsed  int64 `json:"elapsed_ms"`
	// Incomplete marks a sweep the request deadline cut short; the counts
	// cover only the policies that were dispatched in time.
	Incomplete bool `json:"incomplete,omitempty"`
}

// handleCorpusQuery fans one compliance query out over every policy and
// streams per-policy verdicts as NDJSON in completion order, ending with
// a summary line. The whole sweep runs inside one solver admission slot;
// each policy gets its own deadline so a single resource-out costs
// seconds, not the request budget.
func (s *Server) handleCorpusQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req corpusQueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "query is required")
		return
	}
	pols, err := s.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store list failed: %v", err)
		return
	}
	reg := s.pipeline.Obs()
	reg.Counter("quagmire_corpus_queries_total").Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)

	ctx, cancel := context.WithCancel(r.Context())
	lines := make(chan corpusQueryLine, s.corpus.Workers)
	var dispatched int
	go func() {
		defer close(lines)
		dispatched = s.forEachPolicy(ctx, pols, func(p store.Policy) {
			select {
			case lines <- s.corpusAsk(ctx, p, req.Query):
			case <-ctx.Done():
			}
		})
	}()
	// However the handler returns, it stops the sweep and waits for the
	// sweep's goroutines to exit.
	defer func() {
		cancel()
		for range lines {
		}
	}()

	var sum corpusQuerySummary
	sum.Policies = len(pols)
	for line := range lines {
		switch line.Verdict {
		case query.Valid:
			sum.Valid++
		case query.Invalid:
			sum.Invalid++
		case query.Unknown:
			sum.Unknown++
		default:
			sum.Errors++
		}
		if err := enc.Encode(line); err != nil {
			return // client went away
		}
		_ = rc.Flush()
	}
	sum.Incomplete = dispatched < len(pols)
	sum.Elapsed = time.Since(start).Milliseconds()
	reg.Histogram("quagmire_corpus_sweep_seconds", obs.TimeBuckets, "op", "query").ObserveSince(start)
	_ = enc.Encode(struct {
		Summary corpusQuerySummary `json:"summary"`
	}{sum})
	_ = rc.Flush()
}

// corpusAsk answers the query for one policy under the per-policy
// deadline and renders the result (or failure) as a stream line.
func (s *Server) corpusAsk(ctx context.Context, p store.Policy, q string) corpusQueryLine {
	line := corpusQueryLine{ID: p.ID, Name: p.Name, Company: p.Company}
	reg := s.pipeline.Obs()
	pstart := time.Now()
	if s.corpus.PolicyTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.corpus.PolicyTimeout)
		defer cancel()
	}
	a, err := s.engine(p, p.Versions, "corpus")
	if err != nil {
		line.Error = err.Error()
		reg.Counter("quagmire_corpus_policy_errors_total", "reason", "quarantined").Inc()
		return line
	}
	res, err := a.Engine.Ask(ctx, q)
	reg.Histogram("quagmire_corpus_policy_seconds", obs.TimeBuckets).ObserveSince(pstart)
	if err != nil {
		line.Error = err.Error()
		reason := "ask"
		if ctx.Err() != nil {
			reason = "timeout"
		}
		reg.Counter("quagmire_corpus_policy_errors_total", "reason", reason).Inc()
		return line
	}
	line.Verdict = res.Verdict
	line.Cause = res.Cause
	line.ConditionalOn = res.ConditionalOn
	reg.Counter("quagmire_corpus_verdicts_total", "verdict", string(res.Verdict)).Inc()
	return line
}
