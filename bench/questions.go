package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// edgeJSON is one row of GET /v1/policies/{id}/edges.
type edgeJSON struct {
	Text       string `json:"text"`
	Condition  string `json:"condition,omitempty"`
	Permission string `json:"permission,omitempty"`
	Other      string `json:"other,omitempty"`
}

// flow is an edge parsed out of its "[From]-label->[To]" rendering.
type flow struct {
	from, label, to, other string
}

func parseEdge(e edgeJSON) (flow, bool) {
	s := e.Text
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return flow{}, false
	}
	i := strings.Index(s, "]-")
	j := strings.LastIndex(s, "->[")
	if i < 0 || j < i+2 {
		return flow{}, false
	}
	return flow{from: s[1:i], label: s[i+2 : j], to: s[j+3 : len(s)-1], other: e.Other}, true
}

// policyFlows returns the company's own outbound flows: edges whose actor
// is the company. User-initiated edges ("[user]-provide->[name]") do not
// read as questions a user would ask about the company.
func policyFlows(company string, edges []edgeJSON) []flow {
	var out []flow
	for _, e := range edges {
		f, ok := parseEdge(e)
		if ok && strings.EqualFold(f.from, company) && f.label != "" && f.to != "" {
			out = append(out, f)
		}
	}
	return out
}

// questionPool builds n questions for one policy from its own flows and
// from data types borrowed out of other policies' flows (foreign). The
// three kinds mirror how users ask: the full flow ("Does X share my D
// with O?"), the flow without its receiver, and the company's own verb
// applied to data it never mentions — the last kind is what makes a pool
// carry INVALID verdicts, so the solver's satisfiable path runs too. The
// pool is deterministic for (seed, company, edges, foreign).
func questionPool(seed int64, company string, flows []flow, foreign []string, n int) []string {
	own := map[string]bool{}
	for _, f := range flows {
		own[f.to] = true
	}
	seen := map[string]bool{}
	var withRecv, noRecv, swapped []string
	add := func(list *[]string, q string) {
		if !seen[q] {
			seen[q] = true
			*list = append(*list, q)
		}
	}
	for _, f := range flows {
		if f.other != "" && f.other != "user" {
			add(&withRecv, fmt.Sprintf("Does %s %s my %s with %s?", company, f.label, f.to, f.other))
		}
		add(&noRecv, fmt.Sprintf("Does %s %s my %s?", company, f.label, f.to))
	}
	var alien []string
	for _, d := range foreign {
		if !own[d] {
			alien = append(alien, d)
		}
	}
	if len(flows) > 0 {
		for i, d := range alien {
			f := flows[i%len(flows)]
			add(&swapped, fmt.Sprintf("Does %s %s my %s?", company, f.label, d))
		}
	}
	r := rand.New(rand.NewSource(seed))
	for _, l := range [][]string{withRecv, noRecv, swapped} {
		r.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	}
	// A policy with few flows of its own would otherwise fill its pool
	// with swapped questions and skew it toward INVALID.
	swapped = swapped[:min(len(swapped), len(withRecv)+len(noRecv))]
	// Interleave 3:3:2 so every prefix of the pool holds all three kinds.
	var pool []string
	take := func(l *[]string, k int) {
		for ; k > 0 && len(*l) > 0 && len(pool) < n; k-- {
			pool = append(pool, (*l)[0])
			*l = (*l)[1:]
		}
	}
	for len(pool) < n && len(withRecv)+len(noRecv)+len(swapped) > 0 {
		take(&withRecv, 3)
		take(&noRecv, 3)
		take(&swapped, 2)
	}
	return pool
}

// dataTypes returns the sorted distinct data objects of flows, the
// vocabulary other policies borrow for swapped questions.
func dataTypes(flows []flow) []string {
	set := map[string]bool{}
	for _, f := range flows {
		set[f.to] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
