package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Pack is a reusable regulatory rule template: a named set of scenarios
// with $param placeholders, instantiated by a suite's `use` directive.
// Packs are written in the scenario DSL itself and parsed by the same
// parser that reads user suites.
type Pack struct {
	// Name is the identifier after `use`.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Required lists parameters a `use` must supply.
	Required []string
	// Defaults provides optional-parameter fallbacks.
	Defaults map[string]string

	src  string
	once sync.Once
	tmpl []Scenario
	err  error
}

// scenarios parses the pack source lazily, once.
func (p *Pack) scenarios() ([]Scenario, error) {
	p.once.Do(func() {
		s, err := Parse("pack:"+p.Name, p.src)
		if err != nil {
			p.err = fmt.Errorf("rule pack %q is malformed: %w", p.Name, err)
			return
		}
		p.tmpl = s.Scenarios
	})
	return p.tmpl, p.err
}

// builtinPacks is the rule-pack registry. The templates intentionally
// phrase CCPA/GDPR-style obligations as compliance questions over the data
// flows the engine reasons about — a pack pins the verdicts a compliant
// policy must produce, and a policy edit that flips one fails the suite.
var builtinPacks = map[string]*Pack{
	"ccpa-no-sale": {
		Name:     "ccpa-no-sale",
		Doc:      "CCPA §1798.120-style: the controller must not sell personal information",
		Required: []string{"controller"},
		src: `suite "ccpa-no-sale" {
  scenario "no sale of personal information" {
    ask "Does $controller sell my personal information?"
    expect INVALID
    tag "ccpa"
  }
  scenario "no sale of email addresses" {
    ask "Does $controller sell my email address?"
    expect INVALID
    tag "ccpa"
  }
}`,
	},
	"gdpr-special-categories": {
		Name:     "gdpr-special-categories",
		Doc:      "GDPR Art. 9-style: special-category data must not flow to commercial recipients",
		Required: []string{"controller"},
		src: `suite "gdpr-special-categories" {
  scenario "medical records do not reach insurers" {
    ask "Does $controller share my medical records with insurance companies?"
    expect INVALID
    tag "gdpr"
  }
  scenario "medical records do not reach advertisers" {
    ask "Does $controller share my medical records with advertising partners?"
    expect INVALID
    tag "gdpr"
  }
}`,
	},
	"collection-disclosure": {
		Name:     "collection-disclosure",
		Doc:      "transparency baseline: a declared collection practice must follow from the policy",
		Required: []string{"controller", "data"},
		src: `suite "collection-disclosure" {
  scenario "collection of $data is disclosed" {
    ask "Does $controller collect my $data?"
    expect VALID
    tag "transparency"
  }
}`,
	},
}

// expandUse instantiates a pack for one use directive: validates the
// parameters and returns the pack's scenarios with the parameter
// environment attached (substitution happens at compile time, layered over
// the suite's own bindings).
func expandUse(u Use) ([]Scenario, map[string]string, error) {
	p, ok := builtinPacks[u.Pack]
	if !ok {
		names := make([]string, 0, len(builtinPacks))
		for n := range builtinPacks {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown rule pack %q (available: %s)", u.Pack, strings.Join(names, ", "))
	}
	env := map[string]string{}
	for k, v := range p.Defaults {
		env[k] = v
	}
	for k, v := range u.Params {
		if !p.paramKnown(k) {
			return nil, nil, fmt.Errorf("rule pack %q has no parameter %q", u.Pack, k)
		}
		env[k] = v
	}
	for _, req := range p.Required {
		if env[req] == "" {
			return nil, nil, fmt.Errorf("rule pack %q requires parameter %q", u.Pack, req)
		}
	}
	tmpl, err := p.scenarios()
	if err != nil {
		return nil, nil, err
	}
	out := make([]Scenario, len(tmpl))
	copy(out, tmpl)
	return out, env, nil
}

// paramKnown reports whether name is a declared pack parameter.
func (p *Pack) paramKnown(name string) bool {
	for _, r := range p.Required {
		if r == name {
			return true
		}
	}
	_, ok := p.Defaults[name]
	return ok
}
