package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/replica"
	"github.com/privacy-quagmire/quagmire/internal/scenario"
	"github.com/privacy-quagmire/quagmire/internal/server"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// caseOutcome is what every path must agree on for one case. No report
// carries the contradiction flag as a field of its own; every path reports
// it as cause "contradiction".
type caseOutcome struct {
	Verdict       query.Verdict
	Cause         string
	ConditionalOn []string
	Contradiction bool
}

func outcome(verdict query.Verdict, cause string, conditionalOn []string) caseOutcome {
	return caseOutcome{
		Verdict: verdict, Cause: cause, ConditionalOn: conditionalOn,
		Contradiction: cause == query.CauseContradiction,
	}
}

// reportOutcomes keys a one-suite report's cases by name. A case that
// errored fails the test: an error is no verdict to compare.
func reportOutcomes(t *testing.T, path string, rep scenario.Report) map[string]caseOutcome {
	t.Helper()
	if len(rep.Suites) != 1 {
		t.Fatalf("%s: %d suites in the report, want 1", path, len(rep.Suites))
	}
	out := map[string]caseOutcome{}
	for _, c := range rep.Suites[0].Cases {
		if c.Error != "" {
			t.Fatalf("%s: case %q errored: %s", path, c.Name, c.Error)
		}
		out[c.Name] = outcome(c.Got, c.Cause, c.ConditionalOn)
	}
	return out
}

// pathServer is one quagmired, primary or follower, behind httptest.
type pathServer struct {
	name string
	url  string
}

func (s pathServer) post(t *testing.T, path string, body, out any) {
	t.Helper()
	s.send(t, http.MethodPost, path, body, out)
}

func (s pathServer) send(t *testing.T, method, path string, body, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s %s: %d %s", s.name, method, path, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("%s %s %s: %v (%s)", s.name, method, path, err, raw)
	}
}

// corpusRow sweeps the server's corpus with question q and returns the
// outcome of policy id's row.
func (s pathServer) corpusRow(t *testing.T, id, q string) caseOutcome {
	t.Helper()
	data, err := json.Marshal(map[string]string{"query": q})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.url+"/v1/corpus/query", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s POST /v1/corpus/query: %d", s.name, resp.StatusCode)
	}
	// One row per policy, then a summary line, which has no id.
	dec := json.NewDecoder(resp.Body)
	for {
		var row struct {
			ID            string        `json:"id"`
			Verdict       query.Verdict `json:"verdict"`
			Cause         string        `json:"cause"`
			ConditionalOn []string      `json:"conditional_on"`
			Error         string        `json:"error"`
		}
		if err := dec.Decode(&row); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("%s /v1/corpus/query: %v", s.name, err)
		}
		if row.ID == id {
			if row.Error != "" {
				t.Fatalf("%s /v1/corpus/query %q: %s errored: %s", s.name, q, id, row.Error)
			}
			return outcome(row.Verdict, row.Cause, row.ConditionalOn)
		}
	}
	t.Fatalf("%s /v1/corpus/query %q: no row for %s", s.name, q, id)
	return caseOutcome{}
}

func (s pathServer) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(s.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func pathPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// startPrimaryAndFollower wires a disk-backed primary and a follower
// server the way cmd/quagmired does. restart closes the primary's server
// and store and opens both again on the same directory behind the same
// URL, so the primary reads every policy back from its store.
func startPrimaryAndFollower(t *testing.T) (primary, follower pathServer, seq func() uint64, fol *replica.Follower, restart func()) {
	t.Helper()
	dir := t.TempDir()
	var (
		mu      sync.Mutex
		disk    *store.Disk
		psrv    *server.Server
		handler http.Handler
	)
	open := func() {
		d, err := store.OpenDisk(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Options{Pipeline: pathPipeline(t), Store: d})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		disk, psrv, handler = d, srv, srv.Handler()
		mu.Unlock()
	}
	current := func() (*store.Disk, *server.Server, http.Handler) {
		mu.Lock()
		defer mu.Unlock()
		return disk, psrv, handler
	}
	shut := func() {
		d, srv, _ := current()
		srv.Close()
		d.Close()
	}
	open()
	pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _, h := current()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { pts.Close(); shut() })
	seq = func() uint64 {
		d, _, _ := current()
		return d.Seq()
	}
	restart = func() {
		shut()
		open()
	}

	pipeline := pathPipeline(t)
	fol, err := replica.New(replica.Options{
		Primary:    pts.URL,
		Dir:        t.TempDir(),
		Store:      store.Options{Obs: pipeline.Obs()},
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.New(server.Options{
		Pipeline: pipeline,
		Store:    fol,
		Replica:  &server.ReplicaOptions{Primary: pts.URL, Status: fol.StatusAny},
	})
	if err != nil {
		t.Fatal(err)
	}
	fol.Start(replica.Hooks{OnApply: fsrv.ApplyReplicated, OnReload: fsrv.ReloadReplicated})
	fts := httptest.NewServer(fsrv.Handler())
	t.Cleanup(func() { fts.CloseClientConnections(); fts.Close(); fsrv.Close(); fol.Close() })
	return pathServer{"primary", pts.URL}, pathServer{"follower", fts.URL}, seq, fol, restart
}

// TestEveryPathSameVerdict runs each bundled suite through every path a
// question can take and asserts one verdict semantics: `quagmire check
// -json`, POST /v1/policies/{id}/check on a primary and on its follower,
// and /query and the policy's /corpus/query row for each case on both
// give every case the same verdict, cause, conditions and contradiction
// flag. /explore on both agrees too: it is always valid exactly when the
// verdict is an unconditional VALID, and its scenario assuming every
// vague condition has the verdict and cause. Each suite's policy is served
// twice: created with its text, and stored by a PUT of its text over a
// policy created with the other suite's text, which the primary read back
// from its store after a restart. The contradiction fixture covers a
// contradiction inside one question's subgraph and outside the others';
// the sample suite covers plain, conditional and unsupported flows.
func TestEveryPathSameVerdict(t *testing.T) {
	fixtureText, err := os.ReadFile("../../examples/suites/contradiction_policy.txt")
	if err != nil {
		t.Fatal(err)
	}
	suites := []struct {
		file, policy string
	}{
		{"../../examples/suites/contradiction.qq", string(fixtureText)},
		{"../../docs/sample-suite.qq", corpus.Mini()},
	}

	primary, follower, seq, fol, restart := startPrimaryAndFollower(t)
	create := func(name, text string) string {
		var created struct {
			ID string `json:"id"`
		}
		primary.post(t, "/v1/policies", map[string]string{"name": name, "text": text}, &created)
		return created.ID
	}
	// ids[i] are suite i's created and PUT-built policies.
	ids := make([][2]string, len(suites))
	for i, s := range suites {
		ids[i][0] = create(filepath.Base(s.file), s.policy)
		ids[i][1] = create(filepath.Base(s.file)+" (put)", suites[(i+1)%len(suites)].policy)
	}
	restart()
	for i, s := range suites {
		var updated struct {
			SegmentsAdded int `json:"segments_added"`
		}
		primary.send(t, http.MethodPut, "/v1/policies/"+ids[i][1], map[string]string{"text": s.policy}, &updated)
		if updated.SegmentsAdded == 0 {
			t.Fatalf("%s: the PUT added no statement; the other suite's text is no different first text", s.file)
		}
	}
	// The follower's store can reach a seq before its server swaps in the
	// policy's engine, so wait until it serves each policy as the primary
	// does, not only until its watermark arrives.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fol.WaitFor(ctx, seq()); err != nil {
		t.Fatalf("follower never caught up: %v", err)
	}
	for _, pair := range ids {
		for _, id := range pair {
			_, want := primary.get(t, "/v1/policies/"+id)
			for {
				code, got := follower.get(t, "/v1/policies/"+id)
				if code == http.StatusOK && got == want {
					break
				}
				if ctx.Err() != nil {
					t.Fatalf("follower never served %s like the primary: %d %s, want %s", id, code, got, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	for i, s := range suites {
		src, err := os.ReadFile(s.file)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := scenario.Parse(s.file, string(src))
		if err != nil {
			t.Fatal(err)
		}
		cs, err := scenario.Compile(parsed)
		if err != nil {
			t.Fatal(err)
		}

		paths := map[string]map[string]caseOutcome{}
		explorations := map[string]map[string]query.Exploration{}
		jsonOut := filepath.Join(t.TempDir(), "report.json")
		out, err := capture(t, func() error { return run([]string{"check", "-suite", s.file, "-json", jsonOut}) })
		if err != nil {
			t.Errorf("%s: quagmire check is not green: %v\n%s", s.file, err, out)
		}
		raw, err := os.ReadFile(jsonOut)
		if err != nil {
			t.Fatal(err)
		}
		var cliReport scenario.Report
		if err := json.Unmarshal(raw, &cliReport); err != nil {
			t.Fatal(err)
		}
		paths["quagmire check"] = reportOutcomes(t, "quagmire check", cliReport)

		for _, srv := range []pathServer{primary, follower} {
			for k, id := range ids[i] {
				version := [2]string{"created", "PUT"}[k]
				var checked struct {
					Report scenario.Report `json:"report"`
				}
				srv.post(t, "/v1/policies/"+id+"/check", map[string]string{"suite": string(src)}, &checked)
				name := srv.name + " /check, " + version
				paths[name] = reportOutcomes(t, name, checked.Report)

				asked, swept := map[string]caseOutcome{}, map[string]caseOutcome{}
				explored := map[string]query.Exploration{}
				for _, c := range cs.Cases {
					var res struct {
						Verdict       query.Verdict `json:"verdict"`
						Cause         string        `json:"cause"`
						ConditionalOn []string      `json:"conditional_on"`
					}
					srv.post(t, "/v1/policies/"+id+"/query", map[string]string{"question": c.Question}, &res)
					asked[c.Name] = outcome(res.Verdict, res.Cause, res.ConditionalOn)
					swept[c.Name] = srv.corpusRow(t, id, c.Question)
					var exp query.Exploration
					srv.post(t, "/v1/policies/"+id+"/explore", map[string]string{"question": c.Question}, &exp)
					explored[c.Name] = exp
				}
				paths[srv.name+" /query, "+version] = asked
				paths[srv.name+" /corpus/query, "+version] = swept
				explorations[srv.name+" /explore, "+version] = explored
			}
		}

		want := paths["quagmire check"]
		if len(want) != len(cs.Cases) {
			t.Fatalf("%s: the CLI report has %d cases, the suite %d", s.file, len(want), len(cs.Cases))
		}
		for name, got := range paths {
			for _, c := range cs.Cases {
				if g, w := got[c.Name], want[c.Name]; !reflect.DeepEqual(g, w) {
					t.Errorf("%s: %q: %s gives %s, quagmire check %s", s.file, c.Name, name, describe(g), describe(w))
				}
			}
		}
		for name, explored := range explorations {
			for _, c := range cs.Cases {
				exp, w := explored[c.Name], want[c.Name]
				if unconditional := w.Verdict == query.Valid && len(w.ConditionalOn) == 0; exp.AlwaysValid != unconditional {
					t.Errorf("%s: %q: %s always valid %v, quagmire check %s", s.file, c.Name, name, exp.AlwaysValid, describe(w))
				}
				sc, ok := allConditionsHold(exp)
				if !ok {
					t.Errorf("%s: %q: %s has no scenario assuming every condition: %+v", s.file, c.Name, name, exp.Scenarios)
				} else if sc.Verdict != w.Verdict || sc.Cause != w.Cause {
					t.Errorf("%s: %q: %s all-true scenario %s (cause %q), quagmire check %s", s.file, c.Name, name, sc.Verdict, sc.Cause, describe(w))
				}
			}
		}
	}
}

// allConditionsHold returns the exploration's scenario that assumes every
// vague condition holds.
func allConditionsHold(exp query.Exploration) (query.Scenario, bool) {
	for _, sc := range exp.Scenarios {
		all := len(sc.Assumptions) == len(exp.Placeholders)
		for _, v := range sc.Assumptions {
			all = all && v
		}
		if all {
			return sc, true
		}
	}
	return query.Scenario{}, false
}

func describe(o caseOutcome) string {
	return fmt.Sprintf("%s (cause %q, conditional on %v, contradiction %v)",
		o.Verdict, o.Cause, o.ConditionalOn, o.Contradiction)
}
