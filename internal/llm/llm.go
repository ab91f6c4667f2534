// Package llm provides the language-model substrate of the pipeline: a
// provider-neutral Client interface, a prompt library with the few-shot
// templates described in the paper, a caching client, a failure-injecting
// client for tests, and SimLLM — a deterministic rule-grounded model that
// implements every prompt task the pipeline issues (company-name
// identification, coreference resolution, semantic role extraction,
// Chain-of-Layer taxonomy induction and semantic equivalence judging).
//
// SimLLM substitutes for GPT-4o-mini: the pipeline only ever consumes
// structured JSON answers to a fixed family of prompts, and SimLLM produces
// the same kind of output from the same inputs, offline and reproducibly.
package llm

import (
	"context"
	"errors"
	"fmt"
)

// Task identifies the structured job a prompt performs. The simulated model
// dispatches on it; a real HTTP client would ignore it and send Prompt.
type Task string

// Prompt tasks issued by the pipeline.
const (
	// TaskCompanyName asks for the organization name in a policy prefix.
	TaskCompanyName Task = "company_name"
	// TaskExtractParams asks for the semantic roles of one policy segment.
	TaskExtractParams Task = "extract_params"
	// TaskTaxonomyRoot asks for the root concept of a term set.
	TaskTaxonomyRoot Task = "taxonomy_root"
	// TaskTaxonomyLayer asks which remaining terms are immediate children
	// of each frontier node (Chain-of-Layer iteration).
	TaskTaxonomyLayer Task = "taxonomy_layer"
	// TaskSemanticEquiv asks whether two terms mean the same thing in a
	// privacy context.
	TaskSemanticEquiv Task = "semantic_equiv"
)

// Request is a single completion request.
type Request struct {
	// Task selects the structured job; required.
	Task Task
	// Prompt is the fully rendered prompt text, used for cache keys and
	// kept faithful to what a hosted model would receive.
	Prompt string
	// Input carries the task's structured parameters.
	Input map[string]string
}

// Usage reports approximate token accounting, mirroring hosted-API
// responses so cost instrumentation code paths are exercised.
type Usage struct {
	// PromptTokens approximates tokens in the prompt.
	PromptTokens int
	// CompletionTokens approximates tokens in the completion.
	CompletionTokens int
}

// Response is a completion response. Text is JSON for all structured tasks.
type Response struct {
	// Text is the raw completion.
	Text string
	// Usage reports token accounting.
	Usage Usage
}

// Client is the minimal completion interface; SimLLM, the caching client
// and (in a networked deployment) an HTTP client all implement it.
type Client interface {
	// Complete runs one request. Implementations must be safe for
	// concurrent use.
	Complete(ctx context.Context, req Request) (Response, error)
}

// ErrMalformedOutput reports that a model response could not be decoded;
// callers are expected to retry or degrade, as with a hosted model.
var ErrMalformedOutput = errors.New("llm: malformed model output")

// ErrOverloaded simulates a provider-side transient failure.
var ErrOverloaded = errors.New("llm: model overloaded")

// approxTokens estimates tokens as ceil(len/4), the usual rough heuristic.
func approxTokens(s string) int { return (len(s) + 3) / 4 }

// validateRequest rejects requests the pipeline should never produce.
func validateRequest(req Request) error {
	if req.Task == "" {
		return fmt.Errorf("llm: request missing task")
	}
	if req.Prompt == "" {
		return fmt.Errorf("llm: request missing prompt")
	}
	return nil
}
