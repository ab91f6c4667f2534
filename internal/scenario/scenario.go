// Package scenario implements compliance-as-code: a small DSL (.qq files)
// in which a company declares compliance scenarios — actors, data types,
// reusable regulatory rule packs, and the verdict each scenario is expected
// to produce — plus the stack that makes those files executable: a
// lexer→parser→compiler front end that lowers a suite to vocabulary-bound
// batched queries, an executor that runs the batch through a policy's query
// engine (each question solved on its own subgraph, as every endpoint
// solves it), and JSON / JUnit XML reporters whose exit semantics make a
// policy change that silently flips a verdict fail a CI build instead of
// going unnoticed.
//
// A minimal suite:
//
//	suite "acme-baseline" {
//	  policy "corpus:mini"
//	  actor advertisers = "advertising partners"
//
//	  use ccpa-no-sale(controller = "Acme")
//
//	  scenario "email reaches advertisers" {
//	    ask "Does Acme share my email address with $advertisers?"
//	    expect VALID
//	  }
//	}
//
// Grammar (one suite per file; # and // start line comments):
//
//	suite     := "suite" STRING "{" item* "}"
//	item      := "policy" STRING
//	           | "deadline" DURATION
//	           | ("actor" | "data") IDENT "=" STRING
//	           | "use" IDENT [ "(" [param ("," param)*] ")" ]
//	           | scenario
//	param     := IDENT "=" STRING
//	scenario  := "scenario" STRING "{" sitem* "}"
//	sitem     := "ask" STRING | "expect" VERDICT | "tag" STRING
//	VERDICT   := "VALID" | "INVALID" | "UNKNOWN"
//
// Strings interpolate $name / ${name} against the suite's actor/data
// bindings (and, inside rule packs, the pack's parameters); $$ escapes a
// literal dollar sign.
package scenario

import (
	"time"

	"github.com/privacy-quagmire/quagmire/internal/query"
)

// Suite is the parsed form of one .qq file, before compilation.
type Suite struct {
	// Name is the suite's declared name.
	Name string
	// File is the source path (or a synthetic name for in-memory input),
	// used in error messages and reports.
	File string
	// Policy is the declared policy source ("corpus:mini", "file:rel.txt"),
	// empty when the runner binds the policy externally.
	Policy string
	// Deadline bounds each scenario's verification (0 = none declared).
	Deadline time.Duration
	// Bindings are the suite's vocabulary declarations, keyed by name.
	Bindings map[string]Binding
	// Uses are the rule-pack instantiations, in declaration order.
	Uses []Use
	// Scenarios are the directly declared scenarios, in declaration order.
	Scenarios []Scenario
}

// Binding is one vocabulary declaration: actor or data alias → policy
// vocabulary phrase.
type Binding struct {
	// Kind is "actor" or "data".
	Kind string
	// Name is the alias referenced as $name.
	Name string
	// Value is the phrase substituted at compile time.
	Value string
	// Line is the declaration's source line.
	Line int
}

// Use instantiates a built-in rule pack with parameters.
type Use struct {
	// Pack names the rule pack.
	Pack string
	// Params are the instantiation arguments.
	Params map[string]string
	// Line is the use directive's source line.
	Line int
}

// Scenario is one declared compliance scenario.
type Scenario struct {
	// Name identifies the scenario in reports; unique after compilation.
	Name string
	// Ask is the natural-language compliance question (pre-interpolation).
	Ask string
	// Expect is the pinned verdict.
	Expect query.Verdict
	// HasExpect distinguishes a declared UNKNOWN from a missing expect.
	HasExpect bool
	// Tags are free-form labels carried into reports.
	Tags []string
	// Line is the scenario's source line.
	Line int
}
