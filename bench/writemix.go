package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/store"
)

// write-mix load: one editor sending policy updates back to back, beside
// an open loop of cold queries and metadata reads per second, all on the
// primary. The editor sends a fixed count of updates, mixWriteRate per
// measured second (near its throughput on a slow stretch of the host), so
// a run's work, and with it the number of compactions and follower
// re-bootstraps, does not depend on the host's speed.
const (
	mixWriteRate = 30
	mixQueryRate = 100
	mixReadRate  = 100
)

// editor produces each PUT's text: the policy's current text with one to
// three practice statements replaced by statements from other policies,
// so every update re-extracts a few segments. Updates go round-robin over
// the policies, so they spread over the whole corpus.
type editor struct {
	mu      sync.Mutex
	rng     *rand.Rand
	current []string
	donors  []string
	next    int
}

func newEditor(seed int64, texts []string) *editor {
	e := &editor{rng: rand.New(rand.NewSource(seed)), current: append([]string(nil), texts...)}
	for _, t := range texts {
		e.donors = append(e.donors, statements(t)...)
	}
	return e
}

// statements are a policy's practice paragraphs: not headings, not the
// preamble.
func statements(text string) []string {
	var out []string
	for _, p := range strings.Split(text, "\n\n") {
		p = strings.TrimSpace(p)
		if p != "" && !strings.HasPrefix(p, "#") && !strings.HasPrefix(p, "This Privacy Policy") {
			out = append(out, p)
		}
	}
	return out
}

// put returns the next policy index and its new text.
func (e *editor) put() (int, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := e.next % len(e.current)
	e.next++
	paras := strings.Split(e.current[i], "\n\n")
	var slots []int
	for j, p := range paras {
		if len(statements(p)) == 1 {
			slots = append(slots, j)
		}
	}
	for k := 1 + e.rng.Intn(3); k > 0 && len(slots) > 0; k-- {
		paras[slots[e.rng.Intn(len(slots))]] = e.donors[e.rng.Intn(len(e.donors))]
	}
	e.current[i] = strings.Join(paras, "\n\n")
	return i, e.current[i]
}

// acks tracks the highest version acknowledged per policy.
type acks struct {
	mu sync.Mutex
	m  map[string]int
}

func (a *acks) note(id string, v int) {
	a.mu.Lock()
	a.m[id] = max(a.m[id], v)
	a.mu.Unlock()
}

func putOp(cl *client, base string, view *corpusView, ed *editor, ack *acks) op {
	i, text := ed.put()
	id := view.ids[i]
	url := base + "/v1/policies/" + id
	body := map[string]string{"text": text}
	return op{class: "write", send: func(ctx context.Context) bool {
		code, raw, err := cl.do(ctx, http.MethodPut, url, body)
		if err != nil || code != http.StatusOK {
			return false
		}
		var resp struct {
			Policy struct {
				Versions int `json:"versions"`
			} `json:"policy"`
		}
		if json.Unmarshal(raw, &resp) != nil || resp.Policy.Versions < 2 {
			return false
		}
		ack.note(id, resp.Policy.Versions)
		return true
	}}
}

// visibility times each acknowledged write until the follower has
// applied it: acks arrive in sequence order, so one watcher waiting on
// each in turn measures every write exactly.
type visibility struct {
	ch   chan ackEvent
	done chan struct{}
	lat  durations
}

type ackEvent struct {
	seq uint64
	at  time.Time
}

func watchVisibility(f *follower) *visibility {
	// Sized for every write a run makes; a full buffer drops samples
	// rather than stalling the store's write path.
	v := &visibility{ch: make(chan ackEvent, 1<<14), done: make(chan struct{})}
	go func() {
		defer close(v.done)
		for a := range v.ch {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			if f.fol.WaitFor(ctx, a.seq) == nil {
				v.lat.add(time.Since(a.at))
			}
			cancel()
		}
	}()
	return v
}

func (v *visibility) ack(seq uint64) {
	select {
	case v.ch <- ackEvent{seq, time.Now()}:
	default:
	}
}

func (v *visibility) stop() {
	close(v.ch)
	<-v.done
}

// lagSampler records the follower's lag in sequence numbers at 10 Hz.
func lagSampler(f *follower) (stop func() []float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				samples = append(samples, float64(f.fol.Status().LagSeq))
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// runWriteMix: a 300-policy store with an in-process follower; policy
// updates beside cold queries and reads, so a read gain that costs writes
// (or the reverse), the compaction stall and follower re-bootstraps show.
//
// The updates come from one editor in a closed loop, each sent once the
// previous one is acknowledged, and are timed from their send. Sent on a
// schedule instead, between closed phases that saturated the host, their
// latency depended on how much compaction and re-bootstrap work the
// closed phases left behind: over eight seeds run alternately with the
// editor, the spread of its median was 0.27 against 0.15.
func runWriteMix(cfg config) (*result, error) {
	sz := sizesOf(cfg)
	sr, err := bootServer(cfg, sz.policies, false, sz.setups)
	if err != nil {
		return nil, err
	}
	defer sr.cl.close()
	defer sr.p.close()
	res := &result{}
	f, err := bootFollower(sr.p.base, filepath.Join(cfg.work, "follower"), sr.tr)
	if err != nil {
		return nil, err
	}
	defer f.close()
	view, err := loadView(sr.cl, sr.p.base, cfg.seed, sz.questions)
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(view.names))
	for i, name := range view.names {
		raw, err := os.ReadFile(filepath.Join(sr.corpusDir, filepath.FromSlash(name)))
		if err != nil {
			return nil, err
		}
		texts[i] = string(raw)
	}
	ed := newEditor(cfg.seed, texts)
	ack := &acks{m: map[string]int{}}
	vs := newVerdicts()
	all := view.pairs()
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

	if cfg.trace {
		sr.p.st.amp = &ampMeter{reg: sr.p.reg, dir: sr.p.dir}
	}
	vis := watchVisibility(f)
	sr.p.st.onAck = vis.ack
	stopLag := lagSampler(f)
	sr.begin()
	nextPair := 0
	background := func() op {
		if rng.Intn(mixQueryRate+mixReadRate) < mixReadRate {
			return readOp(sr.cl, sr.p.base, view.ids[rng.Intn(len(view.ids))])
		}
		p := all[nextPair%len(all)]
		nextPair++
		return queryOp(sr.cl, sr.p.base, view, p, vs)
	}
	writes := max(1, int(mixWriteRate*cfg.seconds/cycleCount))
	cycles := runCycles(cfg, sr.tr, func() cycle {
		stop := make(chan struct{})
		done := make(chan *loadResult)
		go func() { done <- openLoop(mixQueryRate+mixReadRate, max(1, cfg.nproc-1), background, stop) }()
		edits := closedLoop(1, writes, func() op { return putOp(sr.cl, sr.p.base, view, ed, ack) })
		close(stop)
		return cycle{timed: edits, background: <-done}
	})
	if err := sr.report(res, cycles, "write"); err != nil {
		return nil, err
	}

	// Lag 0: the follower's listing must equal the primary's.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = f.fol.WaitFor(ctx, sr.p.disk.Seq())
	cancel()
	if err != nil {
		return nil, err
	}
	sr.p.st.onAck = nil
	vis.stop()
	lags := stopLag()
	if res.layers != nil {
		st := f.fol.Status()
		res.layers["replica.visibility_p99_ms"] = durPercentile(vis.lat.snapshot(), 99)
		res.layers["replica.lag_seq_p99"] = floatPercentile(lags, 99)
		res.layers["replica.lag_seq_max"] = floatPercentile(lags, 100)
		res.layers["replica.bootstraps"] = float64(st.Bootstraps)
		res.layers["replica.reconnects"] = float64(st.Reconnects)
	}
	if err := sameListing(res, sr.cl, sr.p.base, f.base); err != nil {
		return nil, err
	}

	// Durability: close both, reopen the primary, every acked version is there.
	if err := f.close(); err != nil {
		return nil, err
	}
	if err := sr.p.close(); err != nil {
		return nil, err
	}
	if err := checkAcked(res, sr.p.dir, ack); err != nil {
		return nil, err
	}
	return res, finishTrace(cfg, sr.tr)
}

// sameListing compares GET /v1/policies on the primary and the follower.
func sameListing(res *result, cl *client, primaryURL, followerURL string) error {
	var bodies [2][]byte
	for i, base := range []string{primaryURL, followerURL} {
		code, raw, err := cl.do(context.Background(), http.MethodGet, base+"/v1/policies", nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("list %s: %d", base, code)
		}
		bodies[i] = raw
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		res.fail("follower listing differs from the primary's at lag 0")
	}
	return nil
}

// checkAcked reopens the primary's store and requires every acknowledged
// (policy, version).
func checkAcked(res *result, dir string, ack *acks) error {
	d, err := store.OpenDisk(dir, store.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	if len(ack.m) == 0 {
		res.fail("no write was acknowledged")
	}
	for id, v := range ack.m {
		vs, err := d.Versions(id)
		if err != nil || len(vs) < v {
			res.fail("acked %s v%d missing after reopen (%d versions, %v)", id, v, len(vs), err)
		}
	}
	return nil
}

// floatPercentile is the nearest-rank percentile of v; 0 when empty.
func floatPercentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}
