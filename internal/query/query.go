// Package query implements Phase 3 of the pipeline: semantic query
// verification — Algorithm 1 lines 18–26. A natural-language query is
// parsed into semantic roles, translated into policy vocabulary with
// embedding search plus LLM equivalence verification, matched against a
// hierarchy-closed subgraph, encoded as a first-order-logic formula,
// compiled to SMT-LIB and checked by the SMT solver. "unsat" of the negated
// implication means the query necessarily follows from the policy (VALID);
// "sat" means it does not (INVALID); resource exhaustion is UNKNOWN.
package query

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/embed"
	"github.com/privacy-quagmire/quagmire/internal/graph"
	"github.com/privacy-quagmire/quagmire/internal/kg"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/nlp"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// Verdict is the paper's three-valued query outcome.
type Verdict string

// Verdicts.
const (
	// Valid: the query necessarily follows from the policy.
	Valid Verdict = "VALID"
	// Invalid: the query does not necessarily follow.
	Invalid Verdict = "INVALID"
	// Unknown: the solver exhausted its budget or the fragment is
	// incomplete; human judgment or more budget is needed.
	Unknown Verdict = "UNKNOWN"
)

// Result is the full Phase 3 output for one query.
type Result struct {
	// Verdict is the three-valued outcome.
	Verdict Verdict `json:"verdict"`
	// Translations maps query terms to the policy vocabulary terms they
	// resolved to.
	Translations map[string]string `json:"translations,omitempty"`
	// MatchedEdges are the subgraph edges relevant to the query.
	MatchedEdges []string `json:"matched_edges,omitempty"`
	// Formula is the generated FOL formula (pretty-printed).
	Formula string `json:"formula"`
	// Script is the generated SMT-LIB v2 text.
	Script string `json:"script"`
	// Placeholders lists uninterpreted ambiguity predicates in the
	// formula; non-empty placeholders mean the verdict is conditional on
	// human interpretation of those terms.
	Placeholders []string `json:"placeholders,omitempty"`
	// SMT is the raw solver result.
	SMT smt.Result `json:"-"`
	// FormulaSize is the FOL node count, the complexity proxy reported by
	// the benchmarks.
	FormulaSize int `json:"formula_size"`
	// ConditionalOn, when non-empty, means the verdict became VALID only
	// under the assumption that these vague placeholder conditions hold —
	// the explicit "human judgment required" signal of §2 Phase 3.
	ConditionalOn []string `json:"conditional_on,omitempty"`
	// Contradiction marks that the relevant policy statements are
	// unsatisfiable on their own (an unconditional allow/deny conflict) —
	// the PolicyLint-style apparent contradiction surfaced for review.
	Contradiction bool `json:"contradiction,omitempty"`
	// Cause says why the verdict is UNKNOWN: CauseContradiction when the
	// policy contradicts itself, otherwise the solver's reason for giving
	// up (a resource budget, a timeout or cancellation). Empty for VALID
	// and INVALID, so a reader can tell "the policy is unclear" from "the
	// tool gave up".
	Cause string `json:"cause,omitempty"`
}

// CauseContradiction is Result.Cause for an UNKNOWN that comes from a
// self-contradictory policy rather than from the solver's budget.
const CauseContradiction = "contradiction"

// topK is the number of embedding candidates whose equivalence the model
// checks per term (the paper's k).
const topK = 10

// Engine answers queries against one knowledge graph.
type Engine struct {
	// KG is the policy's knowledge graph; required.
	KG *kg.KnowledgeGraph
	// Client verifies semantic equivalence of term pairs; required.
	Client llm.Client
	// Model is the embedding model for vocabulary translation; required.
	Model *embed.Model
	// SubgraphDepth bounds graph traversal around matched nodes.
	SubgraphDepth int
	// Limits bounds the SMT solver.
	Limits smt.Limits
	// SimplifyFOL enables formula simplification before encoding (the
	// paper's proposed mitigation; benchmarked as ablation A3).
	SimplifyFOL bool
	// WholePolicy disables subgraph extraction and encodes every edge,
	// reproducing the paper's full-formula solver blow-up.
	WholePolicy bool
	// NoHierarchy disables subsumption reasoning (hierarchy closure and
	// subtype facts), leaving only exact matches — ablation A1.
	NoHierarchy bool
	// Workers bounds AskBatch's verification pool; 0 selects
	// runtime.GOMAXPROCS(0), 1 forces sequential verification.
	Workers int
	// Cache, when non-nil, memoizes solver results by compiled script +
	// limits so repeated or overlapping queries skip the solver entirely.
	Cache *smt.ResultCache
	// Obs, when non-nil, receives verification metrics: per-phase latency
	// (translate/subgraph/compile/solve), per-verdict counts, fresh solver
	// time and instantiation counts. Safe to share across engines.
	Obs *obs.Registry

	index     *embed.Index
	indexOnce sync.Once

	subgraph     *subgraphIndex
	subgraphOnce sync.Once

	// foldIDs are the node IDs, sorted, that can equal a lowercase ASCII
	// term under case folding without being equal to it (see nodeFold).
	foldIDs  []string
	foldOnce sync.Once
}

// phaseTimer observes one Phase 3 stage's latency on the engine's
// registry; the returned func is the stop edge.
func (e *Engine) phaseTimer(phase string) func() {
	h := e.Obs.Histogram("quagmire_query_phase_seconds", obs.TimeBuckets, "phase", phase)
	start := time.Now()
	return func() { h.ObserveSince(start) }
}

// observeSolve records solver-side metrics for one solver run — one
// ground core and the checks answered on it: a single sample of their
// summed time and the instances they generated. Cached results are
// excluded from the solve-time histogram — their Elapsed is lookup time,
// which would drag the distribution toward zero and hide real solver
// latency.
func (e *Engine) observeSolve(results []smt.Result) {
	if len(results) == 0 || results[0].Stats.FromCache {
		return
	}
	var elapsed time.Duration
	inst := 0
	for _, r := range results {
		elapsed += r.Stats.Elapsed
		inst += r.Stats.Instantiations
	}
	e.Obs.Histogram("quagmire_smt_solve_seconds", obs.TimeBuckets).ObserveDuration(elapsed)
	e.Obs.Counter("quagmire_smt_instantiations_total").Add(uint64(inst))
}

// NewEngine builds an engine over a knowledge graph. The embeddings of
// the graph's elements (Algorithm 1 line 17) are computed when the first
// question needs them, or by Warm.
func NewEngine(k *kg.KnowledgeGraph, client llm.Client, model *embed.Model) *Engine {
	return &Engine{
		KG: k, Client: client, Model: model,
		SubgraphDepth: 2, SimplifyFOL: true,
	}
}

// vocabIndex returns the embedding index translate searches, building it
// once per engine on first use: every node, every edge and every data
// term of the graph. Engines that never answer a question never embed.
func (e *Engine) vocabIndex() *embed.Index {
	e.indexOnce.Do(func() {
		start := time.Now()
		nodes, edges := e.KG.ED.Nodes(), e.KG.ED.Edges()
		// A data term that names a node has that node's key and text, so
		// the node's entry already stands for it.
		var terms []string
		for _, term := range e.KG.DataH.Terms() {
			if !e.KG.ED.HasNode(term) {
				terms = append(terms, term)
			}
		}
		size := len(nodes) + len(edges) + len(terms)
		keys, texts := make([]string, 0, size), make([]string, 0, size)
		for _, n := range nodes {
			keys, texts = append(keys, "node:"+n.ID), append(texts, n.ID)
		}
		// Edge representations: source+action+target concatenations, "for
		// more accurate matching" (§3).
		for i, ed := range edges {
			keys, texts = append(keys, "edge:"+strconv.Itoa(i)), append(texts, ed.From+" "+ed.Label+" "+ed.To)
		}
		for _, term := range terms {
			keys, texts = append(keys, "node:"+term), append(texts, term)
		}
		e.index = embed.BuildIndex(e.Model, keys, texts)
		e.Obs.Histogram("quagmire_engine_index_seconds", obs.TimeBuckets).ObserveSince(start)
	})
	return e.index
}

// Warm builds what the engine's first question would otherwise build: the
// vocabulary index. Safe to race with queries: the index is built exactly
// once per engine whether Warm or the first Ask gets there first.
func (e *Engine) Warm() { e.vocabIndex() }

// Ask answers a natural-language query.
func (e *Engine) Ask(ctx context.Context, q string) (*Result, error) {
	params, err := e.parseQuery(ctx, q)
	if err != nil {
		return nil, err
	}
	return e.AskParams(ctx, params)
}

// AskParams answers a query already parsed into semantic roles. Ask,
// Explore and Explain answer a question in the same steps: resolve it into
// policy vocabulary and its subgraph, check it with one SMT-LIB script
// that holds the goal checks the path needs, and map the check results to
// verdicts with Decide.
func (e *Engine) AskParams(ctx context.Context, p llm.ParamSet) (*Result, error) {
	res := &Result{Translations: map[string]string{}}
	q, err := e.resolve(ctx, p, res.Translations)
	if err != nil {
		return nil, err
	}
	enc, results, err := e.check(ctx, q, q.edges, askGoals)
	if err != nil {
		return nil, err
	}
	for _, ed := range q.edges {
		res.MatchedEdges = append(res.MatchedEdges, ed.String())
	}
	res.Formula, res.FormulaSize = enc.formula()
	res.Placeholders = enc.placeholders
	res.Script = enc.script
	res.SMT = results[0]
	var conditional bool
	res.Verdict, res.Cause, conditional = Decide(results)
	if conditional {
		res.ConditionalOn = enc.placeholders
	}
	res.Contradiction = res.Cause == CauseContradiction
	e.Obs.Counter("quagmire_query_verdicts_total", "verdict", string(res.Verdict)).Inc()
	return res, nil
}

// resolved is a question in policy vocabulary: its roles translated and
// the subgraph it is answered on.
type resolved struct {
	actor, action, data, other string
	edges                      []*graph.Edge
}

// resolve translates the question's roles into policy vocabulary,
// recording each translation, and extracts its subgraph: matched nodes,
// hierarchy closure, local traversal.
func (e *Engine) resolve(ctx context.Context, p llm.ParamSet, translations map[string]string) (*resolved, error) {
	stopTranslate := e.phaseTimer("translate")
	// Map flow roles onto the graph's actor/counterparty convention.
	actorRole, otherRole := llm.FlowRoles(p)
	actor, err := e.translate(ctx, actorRole, translations)
	if err != nil {
		return nil, err
	}
	data, err := e.translate(ctx, p.DataType, translations)
	if err != nil {
		return nil, err
	}
	other := ""
	if otherRole != "" && otherRole != actorRole && otherRole != "user" {
		if other, err = e.translate(ctx, otherRole, translations); err != nil {
			return nil, err
		}
	}
	q := &resolved{actor: actor, action: nlp.VerbBase(p.Action), data: data, other: other}
	stopTranslate()

	stopSubgraph := e.phaseTimer("subgraph")
	q.edges = e.relevantEdges(q.actor, q.action, q.data, q.other)
	stopSubgraph()
	return q, nil
}

// askGoals are Ask's goal checks: the main check, and when there are
// vague placeholders, the check assuming all of them hold, which refines a
// sat main check.
func askGoals(n int) ([]goalCheck, error) {
	if n == 0 {
		return []goalCheck{{}}, nil
	}
	return []goalCheck{{}, {assume: true, mask: 1<<n - 1}}, nil
}

// check writes the question's script (see encode) and answers it on one
// ground core through the engine's result cache: one result per check.
// The context is checked before and after encoding, which does not poll
// it, so a done context runs nothing and a cached verdict never outlives
// its caller's deadline; once solving, RunCachedCtx returns when the
// context ends.
func (e *Engine) check(ctx context.Context, q *resolved, edges []*graph.Edge, goals goalsFunc) (*encoding, []smt.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	stopCompile := e.phaseTimer("compile")
	enc, err := e.encode(q, edges, goals)
	if err != nil {
		return nil, nil, err
	}
	stopCompile()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	stopSolve := e.phaseTimer("solve")
	defer stopSolve()
	results, err := smt.RunCachedCtx(ctx, e.Cache, enc.script, enc.problem, e.Limits)
	if err != nil {
		return nil, nil, fmt.Errorf("query: solve: %w", err)
	}
	if want := len(enc.goalChecks) + 1; len(results) != want {
		return nil, nil, fmt.Errorf("query: solve: script gave %d results, want %d", len(results), want)
	}
	e.observeSolve(results)
	return enc, results, nil
}

// Decide is the one rule from a question's check results to its verdict.
// results are a script's checks in order: a goal check, then for Ask on a
// question with vague placeholders the goal check assuming all of them
// hold, and last the policy alone. An unsat goal check is VALID, unless
// the policy alone is unsat too: a policy that contradicts itself entails
// anything (ex falso), so that is UNKNOWN with cause CauseContradiction. A
// sat goal check is INVALID, unless the assuming check is unsat: VALID on
// the condition that the placeholders hold. A goal check the solver could
// not decide is UNKNOWN with the solver's reason.
func Decide(results []smt.Result) (v Verdict, cause string, conditional bool) {
	goal, alone := results[0], results[len(results)-1]
	switch goal.Status {
	case smt.Unsat:
		if alone.Status == smt.Unsat {
			return Unknown, CauseContradiction, false
		}
		return Valid, "", false
	case smt.Sat:
		if len(results) == 3 && results[1].Status == smt.Unsat {
			return Valid, "", true
		}
		return Invalid, "", false
	}
	return Unknown, goal.Reason, false
}

// parseQuery extracts semantic roles from the query text, reusing the
// extraction prompt with the graph's company for coreference.
func (e *Engine) parseQuery(ctx context.Context, q string) (llm.ParamSet, error) {
	q = strings.TrimSpace(q)
	q = strings.TrimSuffix(q, "?")
	// Normalize interrogative openers so the role extractor sees a
	// declarative statement.
	for _, prefix := range []string{"does ", "Does ", "will ", "Will ", "can ", "Can ", "may ", "May ", "do ", "Do "} {
		q = strings.TrimPrefix(q, prefix)
	}
	q = strings.ReplaceAll(q, " my ", " your ")
	resp, err := e.Client.Complete(ctx, llm.ExtractParamsPrompt(e.KG.Company, q))
	if err != nil {
		return llm.ParamSet{}, fmt.Errorf("query: parse: %w", err)
	}
	var params []llm.ParamSet
	if err := json.Unmarshal([]byte(resp.Text), &params); err != nil || len(params) == 0 {
		return llm.ParamSet{}, fmt.Errorf("query: parse: %w: %q", llm.ErrMalformedOutput, resp.Text)
	}
	return params[0], nil
}

// translate maps a query term into policy vocabulary: top-k embedding
// candidates, each verified by the LLM; the best verified candidate wins.
func (e *Engine) translate(ctx context.Context, term string, record map[string]string) (string, error) {
	term = nlp.CanonicalTerm(term)
	if term == "" {
		return "", nil
	}
	if e.KG.ED.HasNode(term) || e.KG.DataH.Has(term) {
		record[term] = term
		return term, nil
	}
	// Proper-cased nodes (company name) match case-insensitively.
	if id := e.nodeFold(term); id != "" {
		record[term] = id
		return id, nil
	}
	for _, m := range e.vocabIndex().Search(term, topK) {
		if !strings.HasPrefix(m.Key, "node:") {
			continue
		}
		cand := strings.TrimPrefix(m.Key, "node:")
		llmStart := time.Now()
		resp, err := e.Client.Complete(ctx, llm.SemanticEquivPrompt(term, cand))
		e.Obs.Histogram("quagmire_llm_call_seconds", obs.TimeBuckets, "phase", "query").ObserveSince(llmStart)
		if err != nil {
			return "", fmt.Errorf("query: equivalence check: %w", err)
		}
		var out struct {
			Equivalent bool `json:"equivalent"`
		}
		if err := json.Unmarshal([]byte(resp.Text), &out); err != nil {
			return "", fmt.Errorf("query: equivalence check: %w: %q", llm.ErrMalformedOutput, resp.Text)
		}
		if out.Equivalent {
			record[term] = cand
			return cand, nil
		}
	}
	// No translation: the term stays as-is (it will be undefined in the
	// policy, making incompleteness explicit).
	record[term] = term
	return term, nil
}
