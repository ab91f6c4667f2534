package main

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

func TestQuestionPool(t *testing.T) {
	edges := []edgeJSON{
		{Text: "[Acme]-share->[email address]", Other: "advertising partners"},
		{Text: "[Acme]-collect->[device identifier]"},
		{Text: "[user]-provide->[name]", Other: "Acme"},
		{Text: "not an edge"},
	}
	flows := policyFlows("Acme", edges)
	if len(flows) != 2 {
		t.Fatalf("flows = %+v, want the two Acme flows", flows)
	}
	foreign := []string{"email address", "location", "purchase history"}
	pool := questionPool(7, "Acme", flows, foreign, 10)
	if again := questionPool(7, "Acme", flows, foreign, 10); !reflect.DeepEqual(pool, again) {
		t.Fatalf("pool not deterministic:\n%q\n%q", pool, again)
	}
	want := map[string]bool{
		"Does Acme share my email address with advertising partners?": true,
		"Does Acme share my email address?":                           true,
		"Does Acme collect my device identifier?":                     true,
	}
	seen, swapped := map[string]bool{}, 0
	for _, q := range pool {
		if seen[q] {
			t.Fatalf("duplicate question %q", q)
		}
		seen[q] = true
		if !want[q] {
			swapped++
			if !strings.Contains(q, "location") && !strings.Contains(q, "purchase history") {
				t.Errorf("unexpected question %q", q)
			}
		}
	}
	for q := range want {
		if !seen[q] {
			t.Errorf("pool misses %q", q)
		}
	}
	// Swapped questions use only data the policy never mentions, and are
	// capped at the number of the policy's own questions.
	if swapped != 2 {
		t.Errorf("swapped questions = %d, want 2 (location, purchase history)", swapped)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "server", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "llm", Start: 1, End: 3},
		{ID: 3, Parent: 1, Layer: "llm", Start: 2, End: 5},
		{ID: 4, Parent: 1, Layer: "llm", Start: 7, End: 8},
	}
	got := map[string]time.Duration{}
	for _, r := range selfTimes(spans) {
		got[r.Layer] = r.Self
	}
	if got["server"] != 5 || got["llm"] != 6 {
		t.Fatalf("self times = %v, want server 5 llm 6", got)
	}
}

func TestLLMWrapCountsAndPreservesResponses(t *testing.T) {
	inner := &llmWrap{inner: llm.NewSim(), tr: newTracer(), name: "sim"}
	outer := &llmWrap{inner: llm.NewCachingClient(inner), tr: inner.tr, name: "complete"}
	req := llm.ExtractParamsPrompt("Acme", "We share your email address with advertising partners.")
	want, err := llm.NewSim().Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := outer.Complete(context.Background(), req)
		if err != nil || got != want {
			t.Fatalf("call %d = %+v, %v; want %+v", i, got, err, want)
		}
	}
	if outer.calls.Load() != 2 || inner.calls.Load() != 1 {
		t.Fatalf("calls outer %d inner %d, want 2 and 1 (second call is a cache hit)", outer.calls.Load(), inner.calls.Load())
	}
}

// TestStoreWrapForwards drives every PolicyStore method through the
// wrapper and serves replication through it: a follower bootstraps from
// /v1/replicate/snapshot and tails the WAL past a later write.
func TestStoreWrapForwards(t *testing.T) {
	tr := newTracer()
	p, err := bootPrimary(t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	a, err := p.pipeline.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := core.EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	v := store.Version{VersionMeta: store.VersionMeta{Company: "Acme"}, Payload: payload}
	created, err := p.st.Create("mini", v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.st.AppendBatch([]store.BatchEntry{{Name: "b1", Version: v}, {Name: "b2", Version: v}}); err != nil {
		t.Fatal(err)
	}
	var acked uint64
	p.st.onAck = func(seq uint64) { acked = seq }
	if _, err := p.st.Append(created.ID, 1, v); err != nil {
		t.Fatal(err)
	}
	if acked != p.disk.Seq() || acked == 0 {
		t.Fatalf("onAck saw seq %d, store is at %d", acked, p.disk.Seq())
	}
	if p.st.writes.Load() != 3 || len(p.st.appends.snapshot()) != 1 || len(p.st.batches.snapshot()) != 1 {
		t.Fatalf("wrapper counted %d writes, %d appends, %d batches", p.st.writes.Load(),
			len(p.st.appends.snapshot()), len(p.st.batches.snapshot()))
	}
	same := func(name string, viaWrap, direct any) {
		t.Helper()
		if !reflect.DeepEqual(viaWrap, direct) {
			t.Errorf("%s through wrapper = %+v, direct = %+v", name, viaWrap, direct)
		}
	}
	pw, _ := p.st.Get(created.ID)
	pd, _ := p.disk.Get(created.ID)
	same("Get", pw, pd)
	lw, _ := p.st.List()
	ld, _ := p.disk.List()
	same("List", lw, ld)
	vw, _ := p.st.Versions(created.ID)
	vd, _ := p.disk.Versions(created.ID)
	same("Versions", vw, vd)
	ow, _ := p.st.Version(created.ID, 2)
	od, _ := p.disk.Version(created.ID, 2)
	same("Version", ow, od)
	bw, _ := p.st.LoadPayload(created.ID, 2)
	same("LoadPayload", bw, payload)
	same("Health", p.st.Health().Policies, 3)
	same("Seq", p.st.Seq(), p.disk.Seq())

	f, err := bootFollower(p.base, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if _, err := p.st.Append(created.ID, 2, v); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.fol.WaitFor(ctx, p.disk.Seq()); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.fol.Versions(created.ID); len(got) != 3 {
		t.Fatalf("follower has %d versions of %s, want 3", len(got), created.ID)
	}
	if f.fol.Status().Bootstraps != 1 {
		t.Fatalf("follower status %+v, want one bootstrap", f.fol.Status())
	}
}

// TestSmoke runs every workload at smoke sizes, untraced and traced, and
// requires a correct result line carrying every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	start := time.Now()
	for _, wl := range workloadOrder {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl, seed: 1, seconds: 1.2, trace: traced, smoke: true,
				work: t.TempDir(), spans: t.TempDir(), nproc: 2}
			out, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal(out, &line); err != nil {
				t.Fatalf("%s: result line %s: %v", wl, out, err)
			}
			want := len(e2eUnits)
			if traced {
				want = len(perLayerUnits)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != want {
				t.Fatalf("%s trace=%v: %s", wl, traced, out)
			}
		}
	}
	t.Logf("smoke took %s", time.Since(start).Round(time.Millisecond))
}
