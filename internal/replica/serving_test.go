package replica

// Serving-level follower test: a quagmired follower wired exactly like
// cmd/quagmired wires it (shared obs registry, server hooks) must serve
// the read surface, refuse writes with a primary pointer, and expose
// replication health and metrics.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/server"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

func TestFollowerServesReadSurface(t *testing.T) {
	payloads := encodedPayloads(t)
	pri := startPrimary(t, t.TempDir(), 0)
	t.Cleanup(func() { pri.crash() })
	mkv := func(i int) store.Version {
		return store.Version{
			VersionMeta: store.VersionMeta{Company: "Acme", Stats: store.VersionStats{Nodes: 3 + i}},
			Payload:     payloads[i%len(payloads)],
		}
	}
	var ids []string
	for i := 0; i < 3; i++ {
		p, err := pri.disk.Create("pol", mkv(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}

	// Wire the follower the way cmd/quagmired does: one pipeline shared
	// between the replica store (metrics) and the server, server created
	// over the follower facade, then Start with the server's hooks.
	pipeline := newPipeline(t)
	fol, err := New(Options{
		Primary:    pri.http.URL,
		Dir:        t.TempDir(),
		Store:      store.Options{Obs: pipeline.Obs()},
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	fsrv, err := server.New(server.Options{
		Pipeline: pipeline,
		Store:    fol,
		Replica:  &server.ReplicaOptions{Primary: pri.http.URL, Status: fol.StatusAny},
	})
	if err != nil {
		t.Fatal(err)
	}
	fol.Start(Hooks{OnApply: fsrv.ApplyReplicated, OnReload: fsrv.ReloadReplicated})
	fts := httptest.NewServer(fsrv.Handler())
	t.Cleanup(func() { fts.CloseClientConnections(); fts.Close(); fsrv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fol.WaitFor(ctx, pri.disk.Seq()); err != nil {
		t.Fatalf("follower never caught up: %v", err)
	}

	get := func(path string) (int, string) {
		resp, err := fts.Client().Get(fts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// The read surface serves replicated policies.
	if code, body := get("/v1/policies"); code != http.StatusOK || !strings.Contains(body, ids[0]) {
		t.Fatalf("follower listing: code %d body %s", code, body)
	}
	if code, _ := get("/v1/policies/" + ids[1]); code != http.StatusOK {
		t.Errorf("follower get policy: code %d", code)
	}
	resp, err := fts.Client().Post(fts.URL+"/v1/policies/"+ids[0]+"/query",
		"application/json", strings.NewReader(`{"question":"Does Acme sell my personal information?"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "verdict") {
		t.Errorf("follower query: code %d body %s", resp.StatusCode, body)
	}

	// Writes are refused with 403 and a pointer at the primary.
	for _, req := range []struct{ method, path string }{
		{http.MethodPost, "/v1/policies"},
		{http.MethodPut, "/v1/policies/" + ids[0]},
	} {
		hr, err := http.NewRequest(req.method, fts.URL+req.path, strings.NewReader(`{"name":"x","text":"y"}`))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := fts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s on follower: code %d, want 403", req.method, req.path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Quagmire-Primary"); got != pri.http.URL {
			t.Errorf("%s %s X-Quagmire-Primary = %q, want %q", req.method, req.path, got, pri.http.URL)
		}
	}

	// /healthz carries the replica section with zero lag.
	code, healthBody := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: code %d body %s", code, healthBody)
	}
	var health struct {
		Replica *Status `json:"replica"`
	}
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		t.Fatalf("healthz decode: %v (%s)", err, healthBody)
	}
	if health.Replica == nil {
		t.Fatalf("healthz has no replica section: %s", healthBody)
	}
	if health.Replica.Primary != pri.http.URL || health.Replica.LagSeq != 0 {
		t.Errorf("replica health = %+v, want primary %s with lag 0", health.Replica, pri.http.URL)
	}
	// A caught-up idle follower holds the WAL stream open — the primary
	// flushes headers before the first record, so connected turns true
	// shortly after the tail loop's request lands.
	deadline := time.Now().Add(5 * time.Second)
	for !fol.Status().Connected {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reported connected; status %+v", fol.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The replication gauges surface on the follower's own /metrics.
	code, metrics := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		"quagmire_replica_lag_seq 0",
		"quagmire_replica_applied_seq 3",
		"quagmire_replica_records_applied_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestFollowerServesItsStoreBeforeApplyHook pins that every follower read
// starts from the store. OnApply is held until the test releases it, so
// each read below runs after the record advanced the follower's
// watermark but before the serving hook saw it: creates, then PUTs that
// change a policy's stats and a question's verdict, must each read back
// exactly as the primary serves them. A re-bootstrap onto a fresh primary
// whose history reuses the same (policy, version) numbers with other
// payloads must then serve the new history once OnReload returns.
func TestFollowerServesItsStoreBeforeApplyHook(t *testing.T) {
	pri := startPrimary(t, t.TempDir(), 0)
	t.Cleanup(func() { pri.crash() })
	proxy := newChaosProxy(t, pri.addr())

	pipeline := newPipeline(t)
	fol, err := New(Options{
		Primary:    proxy.url(),
		Dir:        t.TempDir(),
		Store:      store.Options{Obs: pipeline.Obs()},
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	fsrv, err := server.New(server.Options{
		Pipeline: pipeline,
		Store:    fol,
		Replica:  &server.ReplicaOptions{Primary: proxy.url(), Status: fol.StatusAny},
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	ungated := make(chan struct{})
	var ungate sync.Once
	openGate := func() { ungate.Do(func() { close(ungated) }) }
	t.Cleanup(openGate) // runs before fol.Close, which waits for the apply loop
	reloaded := make(chan struct{}, 1)
	fol.Start(Hooks{
		OnApply: func(rec store.Record) {
			select {
			case <-release:
			case <-ungated:
			}
			fsrv.ApplyReplicated(rec)
		},
		OnReload: func() error {
			err := fsrv.ReloadReplicated()
			reloaded <- struct{}{}
			return err
		},
	})
	fts := httptest.NewServer(fsrv.Handler())
	t.Cleanup(func() { fts.CloseClientConnections(); fts.Close(); fsrv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	do := func(method, url, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
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
		return resp.StatusCode, string(raw)
	}
	write := func(base, method, path, text string) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"text": text})
		if code, out := do(method, base+path, string(body)); code != http.StatusCreated && code != http.StatusOK {
			t.Fatalf("%s %s = %d %s", method, path, code, out)
		}
	}
	question := `{"question":"Does Acme share my email address with advertising partners?"}`
	// sameAs requires the follower to serve the listing, each policy and
	// the question's verdict on each policy exactly as primary does.
	sameAs := func(primary, phase string, ids ...string) {
		t.Helper()
		reads := [][2]string{{http.MethodGet, "/v1/policies"}}
		for _, id := range ids {
			reads = append(reads,
				[2]string{http.MethodGet, "/v1/policies/" + id},
				[2]string{http.MethodPost, "/v1/policies/" + id + "/query"})
		}
		for _, rd := range reads {
			body := ""
			if rd[0] == http.MethodPost {
				body = question
			}
			pCode, pBody := do(rd[0], primary+rd[1], body)
			fCode, fBody := do(rd[0], fts.URL+rd[1], body)
			if pCode != http.StatusOK || fCode != pCode || fBody != pBody {
				t.Fatalf("%s: %s %s differs:\nprimary  (%d): %s\nfollower (%d): %s",
					phase, rd[0], rd[1], pCode, pBody, fCode, fBody)
			}
		}
	}

	full := corpus.Mini()
	edited := strings.Replace(full, "We share email addresses with advertising partners.", "", 1)
	if edited == full {
		t.Fatal("fixture sentence not found in Mini corpus")
	}
	other := corpus.Generate(corpus.Config{Company: "Acme", Seed: 7, PracticeStatements: 6, DataRichness: 8, EntityRichness: 8})
	steps := []struct{ method, path, text string }{
		{http.MethodPost, "/v1/policies", full},
		{http.MethodPost, "/v1/policies", other},
		{http.MethodPut, "/v1/policies/p1", edited},
		{http.MethodPut, "/v1/policies/p2", full},
		{http.MethodPut, "/v1/policies/p1", full},
	}
	var ids []string
	for i, st := range steps {
		write(pri.http.URL, st.method, st.path, st.text)
		if st.method == http.MethodPost {
			ids = append(ids, fmt.Sprintf("p%d", len(ids)+1))
		}
		if err := fol.WaitFor(ctx, pri.disk.Seq()); err != nil {
			t.Fatal(err)
		}
		sameAs(pri.http.URL, fmt.Sprintf("step %d before OnApply", i+1), ids...)
		release <- struct{}{}
	}

	// A fresh primary behind the same URL holds a shorter history, so the
	// follower's watermark is ahead of it and it must re-bootstrap. Its p1
	// reaches version 3 too, with the text the old history had at
	// version 2.
	openGate()
	fresh := startPrimary(t, t.TempDir(), 0)
	t.Cleanup(func() { fresh.crash() })
	write(fresh.http.URL, http.MethodPost, "/v1/policies", edited)
	write(fresh.http.URL, http.MethodPut, "/v1/policies/p1", full)
	write(fresh.http.URL, http.MethodPut, "/v1/policies/p1", edited)
	proxy.setBackend(fresh.addr())
	proxy.dropAll()
	select {
	case <-reloaded:
	case <-ctx.Done():
		t.Fatalf("follower never re-bootstrapped onto the fresh primary (status %+v)", fol.Status())
	}
	sameAs(fresh.http.URL, "after re-bootstrap", "p1")
	if g := pipeline.Obs().Gauge("quagmire_policies_quarantined").Value(); g != 0 {
		t.Errorf("quarantine gauge = %v after re-bootstrap, want 0", g)
	}
}
