// Command quagmired serves the pipeline as a JSON HTTP API (see
// internal/server for the endpoint reference). It shuts down gracefully on
// SIGINT/SIGTERM.
//
// Usage:
//
//	quagmired -addr :8080 [-data DIR] [-max-instantiations N] [-preload]
//	          [-read-timeout D] [-solve-timeout D] [-max-solves N]
//	          [-solve-queue N] [-queue-wait D] [-drain-timeout D]
//	          [-warm-workers N] [-corpus-workers N] [-corpus-policy-timeout D]
//	          [-follow URL]
//
// With -data the policy store is durable: every policy version is logged
// to DIR's write-ahead log before it is acknowledged, a restart recovers
// the full registry, and a clean shutdown compacts the log into a
// snapshot. A DIR whose only snapshot is a legacy store-snapshot.json
// (codec 1) is refused at startup with its upgrade path (see README).
// Without -data policies live in memory and die with the process.
//
// Recovery is lazy: boot indexes the store without decoding payloads
// (boot-to-ready is independent of policy count), each policy's query
// engine builds on its first query, and a -warm-workers pool fills the
// remaining engines in the background (-warm-workers -1 leaves every
// engine to its first query). A payload that fails to decode quarantines
// that one policy (served as 503, listed with a marker, /healthz
// degraded) instead of refusing boot.
//
// With -follow the process is a read replica: it bootstraps its -data
// directory from the primary's snapshot stream, tails the primary's WAL
// stream to stay current, serves the entire read surface off the
// replicated store (lazy recovery and quarantine included), and rejects
// writes with 403 plus an X-Quagmire-Primary pointer. /healthz gains a
// replica section with lag and connection state. Replication is
// asynchronous — read-your-writes holds only on the primary.
//
// With -preload the bundled TikTak and MetaBook corpora are analyzed and
// registered at startup, so the API is immediately explorable:
//
//	curl localhost:8080/v1/policies
//	curl -X POST localhost:8080/v1/policies/p1/query \
//	     -d '{"question":"Does TikTak collect my phone number?"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/replica"
	"github.com/privacy-quagmire/quagmire/internal/server"
	"github.com/privacy-quagmire/quagmire/internal/smt"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

func main() {
	cfg := serveConfig{}
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.dataDir, "data", "", "directory for the durable policy store (empty = in-memory)")
	flag.IntVar(&cfg.maxInst, "max-instantiations", 0, "SMT quantifier-instantiation budget (0 = default)")
	flag.BoolVar(&cfg.preload, "preload", false, "analyze and register the bundled corpora at startup")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 0, "deadline for cheap read endpoints (0 = 2s, negative = off)")
	flag.DurationVar(&cfg.solveTimeout, "solve-timeout", 0, "deadline for solver/analysis endpoints (0 = 30s, negative = off)")
	flag.IntVar(&cfg.maxSolves, "max-solves", 0, "concurrent solver-backed requests admitted (0 = max(2, GOMAXPROCS), negative = unlimited)")
	flag.IntVar(&cfg.solveQueue, "solve-queue", 0, "solver requests allowed to queue for a slot (0 = 8×max-solves, negative = none)")
	flag.DurationVar(&cfg.queueWait, "queue-wait", 0, "longest a queued solver request waits before a 429 (0 = 2s)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	flag.IntVar(&cfg.warmWorkers, "warm-workers", 0, "background engine-warmer pool size after lazy recovery (0 = default, negative = off)")
	flag.IntVar(&cfg.corpusWorkers, "corpus-workers", 0, "worker pool size for the /v1/corpus fan-out endpoints (0 = max(2, GOMAXPROCS))")
	flag.DurationVar(&cfg.corpusPolicyTimeout, "corpus-policy-timeout", 0, "per-policy deadline inside a corpus query (0 = 5s, negative = off)")
	flag.StringVar(&cfg.follow, "follow", "", "primary base URL to replicate from; this process becomes a read-only follower (requires -data)")
	flag.Parse()

	logger := log.New(os.Stderr, "quagmired ", log.LstdFlags)
	if err := run(cfg, logger); err != nil {
		logger.Fatal(err)
	}
}

type serveConfig struct {
	addr, dataDir             string
	maxInst                   int
	preload                   bool
	readTimeout, solveTimeout time.Duration
	maxSolves, solveQueue     int
	queueWait, drainTimeout   time.Duration
	warmWorkers               int
	corpusWorkers             int
	corpusPolicyTimeout       time.Duration
	follow                    string
}

func run(cfg serveConfig, logger *log.Logger) error {
	pipeline, err := core.New(core.Options{
		Limits: smt.Limits{MaxInstantiations: cfg.maxInst},
	})
	if err != nil {
		return err
	}
	var (
		policyStore store.PolicyStore
		follower    *replica.Follower
		replicaOpts *server.ReplicaOptions
	)
	switch {
	case cfg.follow != "":
		if cfg.dataDir == "" {
			return fmt.Errorf("-follow requires -data (the follower keeps a durable local copy)")
		}
		follower, err = replica.New(replica.Options{
			Primary: strings.TrimRight(cfg.follow, "/"),
			Dir:     cfg.dataDir,
			Store:   store.Options{Logger: logger, Obs: pipeline.Obs()},
			Logger:  logger,
		})
		if err != nil {
			return fmt.Errorf("open replica store: %w", err)
		}
		policyStore = follower
		replicaOpts = &server.ReplicaOptions{Primary: follower.Status().Primary, Status: follower.StatusAny}
		defer func() {
			if err := follower.Close(); err != nil {
				logger.Printf("replica close: %v", err)
			}
		}()
	case cfg.dataDir != "":
		disk, err := store.OpenDisk(cfg.dataDir, store.Options{Logger: logger, Obs: pipeline.Obs()})
		if err != nil {
			return fmt.Errorf("open policy store: %w", err)
		}
		policyStore = disk
		// Close after graceful shutdown: compacts the WAL into a snapshot so
		// the next start replays nothing. A crash skips this and recovers
		// from the log instead.
		defer func() {
			if err := disk.Close(); err != nil {
				logger.Printf("store close: %v", err)
			}
		}()
	}
	srv, err := server.New(server.Options{
		Pipeline: pipeline,
		Store:    policyStore,
		Logger:   logger,
		Timeouts: server.Timeouts{
			Read:  cfg.readTimeout,
			Solve: cfg.solveTimeout,
		},
		Admission: server.AdmissionConfig{
			MaxConcurrent: cfg.maxSolves,
			MaxQueue:      cfg.solveQueue,
			QueueWait:     cfg.queueWait,
		},
		Recovery: server.RecoveryOptions{WarmWorkers: cfg.warmWorkers},
		Corpus: server.CorpusConfig{
			Workers:       cfg.corpusWorkers,
			PolicyTimeout: cfg.corpusPolicyTimeout,
		},
		Replica: replicaOpts,
	})
	if err != nil {
		return err
	}
	// Stop the background warmer before the store closes (deferred above
	// runs last), whether we exit through drain or a listener error.
	defer srv.Close()
	if follower != nil {
		// Tail only once the server exists: reads start from the store, so
		// the hooks only free the engine each applied record supersedes and
		// empty the engine cache after a re-bootstrap.
		follower.Start(replica.Hooks{OnApply: srv.ApplyReplicated, OnReload: srv.ReloadReplicated})
		logger.Printf("following %s from seq %d", cfg.follow, follower.Seq())
	}

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	if cfg.preload {
		go preloadCorpora(cfg.addr, logger)
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", cfg.addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		// Drain: stop accepting, let in-flight requests finish under the
		// drain deadline, then (deferred above) close the store so the WAL
		// compacts into a snapshot and the next start replays nothing.
		logger.Printf("received %s, draining for up to %s", sig, cfg.drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return <-errCh
	}
}

// preloadCorpora registers the bundled policies through the public API once
// the listener is up, exercising the same code path as external clients.
func preloadCorpora(addr string, logger *log.Logger) {
	base := "http://" + addr
	if addr[0] == ':' {
		base = "http://localhost" + addr
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	// Wait for readiness.
	for i := 0; i < 50; i++ {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	for _, pol := range []struct{ name, text string }{
		{"TikTak", corpus.TikTak()},
		{"MetaBook", corpus.MetaBook()},
	} {
		body := fmt.Sprintf(`{"name":%q,"text":%q}`, pol.name, pol.text)
		resp, err := client.Post(base+"/v1/policies", "application/json", strings.NewReader(body))
		if err != nil {
			logger.Printf("preload %s failed: %v", pol.name, err)
			continue
		}
		resp.Body.Close()
		logger.Printf("preloaded %s (%d)", pol.name, resp.StatusCode)
	}
}
