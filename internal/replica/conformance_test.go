package replica

// Differential fault-injection conformance suite: a primary and a
// follower run in-process with a chaos TCP proxy between them, a
// deterministic randomized workload writes through the primary, and the
// suite injects the faults replication must survive — connections cut
// mid-record, follower SIGKILL, primary crash-restart, a follower cut off
// across one compaction (it keeps tailing), and compaction outrunning a
// lagging follower (it re-bootstraps). After every fault the one assertion that
// matters is differential: once lag reaches 0, the follower's observable
// state is byte-identical to the primary's and verdicts agree. Run under
// -race; the suite is also the concurrency proof for the stream handlers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/server"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

func newPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// encodedPayloads analyzes a few small policies once and returns their
// encoded analysis payloads — real decodable payloads, cheap to reuse
// across the randomized workload.
func encodedPayloads(t *testing.T) [][]byte {
	t.Helper()
	p := newPipeline(t)
	texts := []string{
		corpus.Mini(),
		corpus.Generate(corpus.Config{Company: "RepA", Seed: 7, PracticeStatements: 6, DataRichness: 8, EntityRichness: 8}),
		corpus.Generate(corpus.Config{Company: "RepB", Seed: 11, PracticeStatements: 6, DataRichness: 8, EntityRichness: 8}),
	}
	out := make([][]byte, len(texts))
	for i, text := range texts {
		a, err := p.Analyze(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		data, err := core.EncodeAnalysis(a)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// dumpStore renders everything observable through the PolicyStore
// interface as JSON — the differential unit of the whole suite.
func dumpStore(t *testing.T, s store.PolicyStore) string {
	t.Helper()
	out := map[string]any{}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	out["list"] = list
	for _, p := range list {
		vs, err := s.Versions(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		out["versions:"+p.ID] = vs
		for _, vm := range vs {
			payload, err := s.LoadPayload(p.ID, vm.N)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("payload:%s:%d", p.ID, vm.N)] = string(payload)
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// chaosProxy is a TCP proxy between follower and primary that injects
// transport faults: per-connection byte budgets (the stream dies
// mid-record at an arbitrary byte boundary), hard connection drops, and
// a down mode that refuses everything. The proxy's own address is stable
// across primary restarts — followers only ever know the proxy.
type chaosProxy struct {
	ln      net.Listener
	backend atomic.Value // string host:port
	down    atomic.Bool
	budget  atomic.Int64 // backend->client bytes per connection; 0 = unlimited

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newChaosProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, conns: map[net.Conn]struct{}{}}
	p.backend.Store(backend)
	go p.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		p.dropAll()
	})
	return p
}

func (p *chaosProxy) url() string { return "http://" + p.ln.Addr().String() }

func (p *chaosProxy) setBackend(addr string) { p.backend.Store(addr) }

func (p *chaosProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.down.Load() {
			c.Close()
			continue
		}
		go p.serve(c)
	}
}

func (p *chaosProxy) serve(client net.Conn) {
	defer client.Close()
	backend, err := net.Dial("tcp", p.backend.Load().(string))
	if err != nil {
		return
	}
	defer backend.Close()
	p.mu.Lock()
	p.conns[client] = struct{}{}
	p.conns[backend] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, client)
		delete(p.conns, backend)
		p.mu.Unlock()
	}()
	go func() {
		_, _ = io.Copy(backend, client)
		if tc, ok := backend.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()
	var r io.Reader = backend
	if budget := p.budget.Load(); budget > 0 {
		// The copy stops after budget bytes; the deferred closes then sever
		// the stream wherever that landed — usually mid-frame.
		r = io.LimitReader(backend, budget)
	}
	_, _ = io.Copy(client, r)
}

// dropAll severs every in-flight connection.
func (p *chaosProxy) dropAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
}

// primaryNode is one incarnation of the primary process: disk store,
// server, HTTP listener.
type primaryNode struct {
	dir       string
	threshold int64
	disk      *store.Disk
	srv       *server.Server
	http      *httptest.Server
}

func startPrimary(t *testing.T, dir string, threshold int64) *primaryNode {
	t.Helper()
	d, err := store.OpenDisk(dir, store.Options{SnapshotThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Pipeline: newPipeline(t), Store: d})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &primaryNode{dir: dir, threshold: threshold, disk: d, srv: srv, http: ts}
}

func (p *primaryNode) addr() string { return p.http.Listener.Addr().String() }

// crash kills the incarnation the hard way: HTTP connections severed,
// server stopped, and the store abandoned without its final compaction,
// exactly like SIGKILL. The WAL holds everything acked. A background
// compaction already running finishes first (the process dies after its
// last step), so it cannot touch the directory the next incarnation opens.
func (p *primaryNode) crash() {
	p.http.CloseClientConnections()
	p.http.Close()
	p.srv.Close()
	p.disk.CloseWithoutSnapshot()
}

func TestReplicaConformanceUnderFaults(t *testing.T) {
	payloads := encodedPayloads(t)
	// smallOnly restricts writes to the smallest payload, whose records
	// stay under a third of the compaction threshold.
	smallOnly := false
	mkVersion := func(i int) store.Version {
		pi := i % len(payloads)
		if smallOnly {
			pi = 0
		}
		return store.Version{
			VersionMeta: store.VersionMeta{
				Company: fmt.Sprintf("Co%d", pi),
				Stats:   store.VersionStats{Nodes: 5 + i%7, Edges: 3 + i%5, Segments: 2, Practices: 1 + i%3},
			},
			Payload: payloads[pi],
		}
	}
	// Compaction threshold scaled to the payload size so the lag phase is
	// guaranteed to compact past the paused follower's watermark.
	threshold := int64(len(payloads[0]) * 4)

	pdir := t.TempDir()
	pri := startPrimary(t, pdir, threshold)
	t.Cleanup(func() { pri.crash() })
	proxy := newChaosProxy(t, pri.addr())

	// Deterministic randomized workload: create or append, tracked so the
	// suite can replay expectations. Plain LCG keeps it reproducible.
	var ids []string
	versions := map[string]int{}
	seed := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	opCount := 0
	write := func(t *testing.T) {
		t.Helper()
		opCount++
		if len(ids) == 0 || next(10) < 6 {
			p, err := pri.disk.Create(fmt.Sprintf("pol-%d", opCount), mkVersion(opCount))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, p.ID)
			versions[p.ID] = 1
			return
		}
		id := ids[next(len(ids))]
		if _, err := pri.disk.Append(id, versions[id], mkVersion(opCount)); err != nil {
			t.Fatal(err)
		}
		versions[id]++
	}
	writeN := func(t *testing.T, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			write(t)
		}
	}

	fdir := t.TempDir()
	fol, err := New(Options{
		Primary:    proxy.url(),
		Dir:        fdir,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fol.Start(Hooks{})
	t.Cleanup(func() { fol.Close() })

	converge := func(t *testing.T, phase string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := fol.WaitFor(ctx, pri.disk.Seq()); err != nil {
			t.Fatalf("%s: follower never caught up: %v (status %+v)", phase, err, fol.Status())
		}
		if got, want := dumpStore(t, fol), dumpStore(t, pri.disk); got != want {
			t.Fatalf("%s: follower state differs from primary after catch-up", phase)
		}
		if st := fol.Status(); st.LagSeq != 0 {
			t.Fatalf("%s: lag_seq = %d after catch-up, want 0", phase, st.LagSeq)
		}
	}

	// Phase 1: clean tail — the no-fault baseline.
	writeN(t, 15)
	converge(t, "baseline")

	// Phase 2: connections die mid-record. Small per-connection byte
	// budgets guarantee cuts land inside frames; the follower must resume
	// from its watermark every time and never apply a torn record.
	proxy.budget.Store(int64(len(payloads[0]) / 3))
	for i := 0; i < 8; i++ {
		writeN(t, 2)
		proxy.dropAll()
	}
	proxy.budget.Store(0)
	converge(t, "mid-record drops")

	// Phase 3: follower SIGKILL while records are in flight, then a new
	// process over the same directory. The recovered watermark must resume
	// the stream with no duplicates and no gaps.
	writeN(t, 5)
	fol.Kill()
	writeN(t, 10)
	fol2, err := New(Options{
		Primary:    proxy.url(),
		Dir:        fdir,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("follower restart after kill: %v", err)
	}
	fol2.Start(Hooks{})
	t.Cleanup(func() { fol2.Close() })
	fol = fol2
	converge(t, "follower SIGKILL restart")

	// Phase 4: primary crash-restart. The follower rides out the outage
	// reconnecting, then tails the recovered incarnation.
	writeN(t, 4)
	pri.crash()
	pri2 := startPrimary(t, pdir, threshold)
	t.Cleanup(func() { pri2.crash() })
	proxy.setBackend(pri2.addr())
	proxy.dropAll()
	pri = pri2
	writeN(t, 6)
	converge(t, "primary crash-restart")

	// Phase 5: the primary compacts once while the follower is cut off.
	// Small records are written one at a time until a compaction has
	// rotated the WAL at a cut above the follower's watermark (the
	// retained generation then ends there); at most one record lands
	// after that rotation, too few to start another compaction. The phase
	// waits for that compaction's snapshot. The retained generation still
	// holds every record past the follower's watermark, so the follower
	// tails across the compaction with no re-bootstrap and ends
	// byte-identical.
	bootstrapsBefore := fol.Status().Bootstraps
	watermark := fol.Seq()
	proxy.down.Store(true)
	proxy.dropAll()
	smallOnly = true
	for inspect(t, pdir).RetainedSeq <= watermark {
		write(t)
	}
	smallOnly = false
	cut := inspect(t, pdir).RetainedSeq
	waitFor(t, "the compaction's snapshot", func() bool { return inspect(t, pdir).SnapshotSeq >= cut })
	if floor := tailFloor(t, pri.disk); floor > watermark {
		t.Fatalf("tail floor %d passed the follower's watermark %d: more than one compaction ran", floor, watermark)
	}
	proxy.down.Store(false)
	converge(t, "follower cut off across one compaction")
	if got := fol.Status().Bootstraps; got != bootstrapsBefore {
		t.Errorf("tail across one compaction: bootstraps = %d, want %d (re-bootstrapped inside the retained window)", got, bootstrapsBefore)
	}

	// Phase 6: compaction outruns a lagging follower. With the proxy down,
	// the primary writes until its tail floor passes the follower's
	// watermark, which takes two compactions now that one stays inside the
	// retained window; on reconnect the primary answers 410 Gone and the
	// follower must re-bootstrap from a fresh snapshot — and still end up
	// byte-identical.
	watermark = fol.Seq()
	proxy.down.Store(true)
	proxy.dropAll()
	for tailFloor(t, pri.disk) <= watermark {
		write(t)
	}
	proxy.down.Store(false)
	converge(t, "compaction vs lagging follower")
	if got := fol.Status().Bootstraps; got <= bootstrapsBefore {
		t.Errorf("compaction race: bootstraps = %d, want > %d (410 path never exercised)", got, bootstrapsBefore)
	}

	// Final differential: full read surface and verdicts through real
	// servers over both stores.
	writeN(t, 3)
	converge(t, "final")
	assertServingStateIdentical(t, pri.disk, fol, ids[next(len(ids))])

	if st := fol.Status(); st.Reconnects == 0 {
		t.Error("suite never exercised a reconnect — fault injection is broken")
	}
}

// tailFloor is the lowest watermark the primary's store still tails
// from: below it, ReplayFrom answers ErrCompacted.
func tailFloor(t *testing.T, d *store.Disk) uint64 {
	t.Helper()
	stop := errors.New("stop at the first record")
	lo, hi := uint64(0), d.Seq()
	for lo < hi {
		mid := lo + (hi-lo)/2
		err := d.ReplayFrom(mid, func(store.Record) error { return stop })
		switch {
		case errors.Is(err, store.ErrCompacted):
			lo = mid + 1
		case err == nil || errors.Is(err, stop):
			hi = mid
		default:
			t.Fatal(err)
		}
	}
	return lo
}

func inspect(t *testing.T, dir string) store.Info {
	t.Helper()
	info, err := store.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// waitFor polls cond until it holds or 30 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// assertServingStateIdentical builds fresh servers over the two stores
// and compares what clients actually see: the policy listing and a solver
// verdict on the same question.
func assertServingStateIdentical(t *testing.T, primary, follower store.PolicyStore, queryID string) {
	t.Helper()
	get := func(ts *httptest.Server, path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(ts *httptest.Server, path, body string) (int, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	servers := make([]*httptest.Server, 0, 2)
	for _, st := range []store.PolicyStore{primary, follower} {
		// Background warming off: listing stats must reflect the stores
		// alone, not how far each server's warmer happened to get.
		srv, err := server.New(server.Options{
			Pipeline: newPipeline(t),
			Store:    st,
			Recovery: server.RecoveryOptions{WarmWorkers: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.CloseClientConnections(); ts.Close(); srv.Close() })
		servers = append(servers, ts)
	}
	pCode, pList := get(servers[0], "/v1/policies")
	fCode, fList := get(servers[1], "/v1/policies")
	if pCode != http.StatusOK || fCode != http.StatusOK {
		t.Fatalf("list codes: primary %d, follower %d", pCode, fCode)
	}
	if pList != fList {
		t.Errorf("policy listings differ:\nprimary:  %s\nfollower: %s", pList, fList)
	}
	question := `{"question":"Does Acme share my email address with advertising partners?"}`
	pCode, pVerdict := post(servers[0], "/v1/policies/"+queryID+"/query", question)
	fCode, fVerdict := post(servers[1], "/v1/policies/"+queryID+"/query", question)
	if pCode != fCode || pVerdict != fVerdict {
		t.Errorf("verdicts differ for %s:\nprimary  (%d): %s\nfollower (%d): %s",
			queryID, pCode, pVerdict, fCode, fVerdict)
	}
}
