package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/ingest"
	"github.com/privacy-quagmire/quagmire/internal/llm"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/replica"
	"github.com/privacy-quagmire/quagmire/internal/server"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// instance is one pipeline with its llm wrappers and metrics registry.
type instance struct {
	reg          *obs.Registry
	pipeline     *core.Pipeline
	outer, inner *llmWrap
}

// newInstance builds a pipeline whose client is the default cached
// simulator with a counting wrapper outside and inside the cache.
func newInstance(tr *tracer) (*instance, error) {
	inner := &llmWrap{inner: llm.NewSim(), tr: tr, name: "sim"}
	outer := &llmWrap{inner: llm.NewCachingClient(inner), tr: tr, name: "complete"}
	reg := obs.NewRegistry()
	p, err := core.New(core.Options{Client: outer, Obs: reg})
	if err != nil {
		return nil, err
	}
	return &instance{reg: reg, pipeline: p, outer: outer, inner: inner}, nil
}

// serve runs h on a loopback listener and returns its base URL and a stop
// function that closes the server and waits for the serve loop to exit.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	stop := func() {
		_ = hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// primary is a booted primary: disk store (fsync on, default compaction
// threshold), the bench store wrapper, the server with default admission
// and its loopback listener.
type primary struct {
	*instance
	dir    string
	disk   *store.Disk
	st     *storeWrap
	srv    *server.Server
	base   string
	stop   func()
	openMS float64
}

func bootPrimary(dir string, tr *tracer) (*primary, error) {
	in, err := newInstance(tr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	disk, err := store.OpenDisk(dir, store.Options{Obs: in.reg})
	if err != nil {
		return nil, err
	}
	p := &primary{instance: in, dir: dir, disk: disk, openMS: ms(time.Since(start))}
	p.st = newStoreWrap(disk, tr)
	p.srv, err = server.New(server.Options{Pipeline: in.pipeline, Store: p.st})
	if err != nil {
		disk.Close()
		return nil, err
	}
	p.base, p.stop, err = serve(tr.middleware(p.srv.Handler()))
	if err != nil {
		p.srv.Close()
		disk.Close()
		return nil, err
	}
	return p, nil
}

// close stops serving, stops the warmer and closes the store (which
// compacts the WAL into a snapshot).
func (p *primary) close() error {
	p.stop()
	p.srv.Close()
	return p.disk.Close()
}

// waitWarm blocks until the background warmer has built every recovered
// engine.
func (p *primary) waitWarm(ctx context.Context) error {
	g := p.reg.Gauge("quagmire_recovery_warm_pending")
	for g.Value() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("warmer: %v engines still pending: %w", g.Value(), ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// firstQuery asks the first stored policy one question and requires a
// verdict: the end of set-up as a user sees it.
func (p *primary) firstQuery(cl *client) error {
	var pol struct {
		Company string `json:"company"`
	}
	if err := cl.getJSON(p.base+"/v1/policies/p1", &pol); err != nil {
		return err
	}
	q := map[string]string{"question": fmt.Sprintf("Does %s collect my email address?", pol.Company)}
	code, raw, err := cl.do(context.Background(), http.MethodPost, p.base+"/v1/policies/p1/query", q)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("first query: %d %s", code, raw)
	}
	return nil
}

// setupReps boots the primary over dir reps times, timing OpenDisk →
// server.New → warmer drained → first /query answered, and keeps the last
// boot running. It returns the median and every sample.
func setupReps(dir string, reps int, tr *tracer, cl *client) (*primary, float64, []float64, error) {
	var samples []float64
	var p *primary
	for i := 0; i < reps; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, 0, nil, err
			}
		}
		// Start every boot from a collected heap, as a fresh process would,
		// so garbage from the previous boot does not add a collection to
		// some samples and not others.
		runtime.GC()
		start := time.Now()
		var err error
		if p, err = bootPrimary(dir, tr); err != nil {
			return nil, 0, nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = p.waitWarm(ctx)
		cancel()
		if err == nil {
			err = p.firstQuery(cl)
		}
		if err != nil {
			p.close()
			return nil, 0, nil, err
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	return p, median(samples), samples, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// follower is an in-process read replica wired like `quagmired -follow`.
type follower struct {
	*instance
	fol  *replica.Follower
	srv  *server.Server
	base string
	stop func()
}

func bootFollower(primaryURL, dir string, tr *tracer) (*follower, error) {
	in, err := newInstance(tr)
	if err != nil {
		return nil, err
	}
	fol, err := replica.New(replica.Options{Primary: primaryURL, Dir: dir, Store: store.Options{Obs: in.reg}})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{
		Pipeline: in.pipeline,
		Store:    fol,
		Replica:  &server.ReplicaOptions{Primary: primaryURL, Status: fol.StatusAny},
	})
	if err != nil {
		fol.Close()
		return nil, err
	}
	fol.Start(replica.Hooks{OnApply: srv.ApplyReplicated, OnReload: srv.ReloadReplicated})
	f := &follower{instance: in, fol: fol, srv: srv}
	if f.base, f.stop, err = serve(srv.Handler()); err != nil {
		srv.Close()
		fol.Close()
		return nil, err
	}
	return f, nil
}

func (f *follower) close() error {
	f.stop()
	f.srv.Close()
	return f.fol.Close()
}

// fixture generates a seeded corpus of n policies (plus the Mini policy
// when withMini) and ingests it into a fresh data directory with the
// program's own ingest.Run. Its cost is excluded from every metric.
func fixture(root string, n int, seed int64, withMini bool) (corpusDir, dataDir string, err error) {
	corpusDir = filepath.Join(root, "corpus")
	dataDir = filepath.Join(root, "data")
	if _, err := corpus.WriteCorpus(corpusDir, n, seed); err != nil {
		return "", "", err
	}
	if withMini {
		if err := os.WriteFile(filepath.Join(corpusDir, "mini.txt"), []byte(corpus.Mini()), 0o644); err != nil {
			return "", "", err
		}
		n++
	}
	sum, err := ingestDir(corpusDir, dataDir, runtime.NumCPU(), nil)
	if err != nil {
		return "", "", err
	}
	if sum.Ingested != n || len(sum.Failed) > 0 {
		return "", "", fmt.Errorf("fixture ingest: %d of %d ingested, %d failed", sum.Ingested, n, len(sum.Failed))
	}
	return corpusDir, dataDir, nil
}

// ingestDir runs ingest.Run over corpusDir into a fresh store at dataDir
// with a fresh pipeline, closing the store afterwards.
func ingestDir(corpusDir, dataDir string, workers int, tr *tracer) (ingest.Summary, error) {
	in, err := newInstance(tr)
	if err != nil {
		return ingest.Summary{}, err
	}
	disk, err := store.OpenDisk(dataDir, store.Options{Obs: in.reg})
	if err != nil {
		return ingest.Summary{}, err
	}
	sum, err := ingest.Run(context.Background(), in.pipeline, disk, corpusDir, ingest.Options{Workers: workers, Obs: in.reg})
	return sum, errors.Join(err, disk.Close())
}
