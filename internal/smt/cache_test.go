package smt

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/smtlib"
)

const satScript = `(declare-fun p () Bool)
(assert p)
(check-sat)`

const unsatScript = `(declare-fun p () Bool)
(assert p)
(assert (not p))
(check-sat)`

// runCached decodes src and runs it through the cache, as a query runs
// the script it wrote.
func runCached(ctx context.Context, c *ResultCache, src string, limits Limits) ([]Result, error) {
	prob, err := smtlib.DecodeScript(src)
	if err != nil {
		return nil, err
	}
	return RunCachedCtx(ctx, c, src, func() *smtlib.Problem { return prob }, limits)
}

// solveCached runs a one-check script through the cache and returns its
// only result.
func solveCached(c *ResultCache, src string, limits Limits) (Result, error) {
	res, err := runCached(context.Background(), c, src, limits)
	if err != nil {
		return Result{}, err
	}
	if len(res) != 1 {
		return Result{}, fmt.Errorf("%d results, want 1", len(res))
	}
	return res[0], nil
}

func TestResultCacheHitsAndMisses(t *testing.T) {
	c := NewResultCache(0)
	first, err := solveCached(c, satScript, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != Sat {
		t.Fatalf("status = %v, want sat", first.Status)
	}
	second, err := solveCached(c, satScript, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != first.Status {
		t.Errorf("cached status %v != original %v", second.Status, first.Status)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestResultCacheKeyIncludesLimits(t *testing.T) {
	c := NewResultCache(0)
	if _, err := solveCached(c, satScript, Limits{}); err != nil {
		t.Fatal(err)
	}
	// A different budget is a different problem: it must miss.
	if _, err := solveCached(c, satScript, Limits{MaxInstantiations: 7}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 0 hits, 2 misses, 2 entries", st)
	}
}

func TestResultCacheDoesNotCacheErrors(t *testing.T) {
	c := NewResultCache(0)
	bad := "(assert" // unparseable
	for i := 0; i < 2; i++ {
		if _, err := solveCached(c, bad, Limits{}); err == nil {
			t.Fatal("expected parse error")
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("errors must not be cached: %+v", st)
	}
}

func TestResultCacheEviction(t *testing.T) {
	c := NewResultCache(2)
	scripts := make([]string, 3)
	for i := range scripts {
		scripts[i] = fmt.Sprintf("(declare-fun p%d () Bool)\n(assert p%d)\n(check-sat)", i, i)
		if _, err := solveCached(c, scripts[i], Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 after FIFO eviction", st.Entries)
	}
	// The oldest script was evicted; re-solving it must miss.
	if _, err := solveCached(c, scripts[0], Limits{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Errorf("evicted entry must not hit: %+v", st)
	}
}

func TestResultCacheNilDegradesToPlainSolve(t *testing.T) {
	res, err := solveCached(nil, unsatScript, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unsat {
		t.Errorf("status = %v, want unsat", res.Status)
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c := NewResultCache(0)
	scripts := []string{satScript, unsatScript}
	want := []Status{Sat, Unsat}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				idx := (g + i) % len(scripts)
				res, err := solveCached(c, scripts[idx], Limits{})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Status != want[idx] {
					t.Errorf("script %d: status %v, want %v", idx, res.Status, want[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 16*20 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 16*20)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Hits == 0 {
		t.Error("repeated concurrent solves should hit the cache")
	}
}

// TestResultCacheStampedeSuppression is the regression test for the PR 1
// cache stampede: N concurrent misses on one key must run the solver once.
// The leader blocks until the test has observed every other goroutine
// parked on the flight, so the assertion on Suppressed is deterministic.
func TestResultCacheStampedeSuppression(t *testing.T) {
	const goroutines = 8
	c := NewResultCache(0)
	key := CacheKey("stampede", Limits{})
	var computes atomic.Int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := c.MemoCtx(context.Background(), key, func() ([]Result, error) {
				computes.Add(1)
				<-release
				return []Result{{Status: Unsat}}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res[0]
		}(g)
	}
	// Wait until all non-leaders are parked on the in-flight solve, then
	// let the leader finish.
	for c.waitersOf(key) < goroutines-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
	if st.Suppressed != goroutines-1 {
		t.Errorf("suppressed = %d, want %d", st.Suppressed, goroutines-1)
	}
	fromCache := 0
	for _, res := range results {
		if res.Status != Unsat {
			t.Fatalf("diverging result: %v", res.Status)
		}
		if res.Stats.FromCache {
			fromCache++
		}
	}
	if fromCache != goroutines-1 {
		t.Errorf("%d results marked FromCache, want %d", fromCache, goroutines-1)
	}
}

// TestResultCacheHitReportsLookupTime is the regression test for stale
// timing: a hit must carry FromCache and its own (tiny) lookup time, not
// the original solve's Elapsed.
func TestResultCacheHitReportsLookupTime(t *testing.T) {
	c := NewResultCache(0)
	key := CacheKey("timing", Limits{})
	const solveTime = 50 * time.Millisecond
	first, err := c.MemoCtx(context.Background(), key, func() ([]Result, error) {
		time.Sleep(solveTime)
		return []Result{{Status: Sat, Stats: Stats{Elapsed: solveTime}}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Stats.FromCache {
		t.Error("first solve must not be marked FromCache")
	}
	second, err := c.MemoCtx(context.Background(), key, func() ([]Result, error) {
		t.Error("hit must not recompute")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !second[0].Stats.FromCache {
		t.Error("hit not marked FromCache")
	}
	if second[0].Stats.Elapsed >= solveTime/2 {
		t.Errorf("hit Elapsed = %v, want actual lookup time well under the %v solve", second[0].Stats.Elapsed, solveTime)
	}
}

func TestResultCacheEvictionCounter(t *testing.T) {
	c := NewResultCache(2)
	for i := 0; i < 4; i++ {
		script := fmt.Sprintf("(declare-fun q%d () Bool)\n(assert q%d)\n(check-sat)", i, i)
		if _, err := solveCached(c, script, Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 evictions and 2 entries", st)
	}
}

// TestMemoCtxWaiterCancellation: a waiter whose context dies while the
// leader is still solving returns promptly with ctx.Err().
func TestMemoCtxWaiterCancellation(t *testing.T) {
	c := NewResultCache(0)
	key := CacheKey("waiter-cancel", Limits{})
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		close(started)
		_, err := c.MemoCtx(context.Background(), key, func() ([]Result, error) {
			<-release
			return []Result{{Status: Sat}}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started
	// Poll until the leader's flight is registered, then join it.
	for {
		c.mu.Lock()
		_, registered := c.inflight[key]
		c.mu.Unlock()
		if registered {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.MemoCtx(ctx, key, func() ([]Result, error) {
			t.Error("waiter must not compute while leader holds the flight")
			return nil, nil
		})
		waiterErr <- err
	}()
	for c.waitersOf(key) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return while leader was still solving")
	}
	close(release)
	<-leaderDone
}

// TestMemoCtxLeaderCancelDoesNotPoisonWaiters: when the leader's own
// context dies mid-solve, a waiter with a live context retries and gets a
// real answer instead of inheriting the leader's cancellation.
func TestMemoCtxLeaderCancelDoesNotPoisonWaiters(t *testing.T) {
	c := NewResultCache(0)
	key := CacheKey("leader-cancel", Limits{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, err := c.MemoCtx(leaderCtx, key, func() ([]Result, error) {
			<-release
			return nil, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader error = %v, want context.Canceled", err)
		}
	}()
	// The waiter must not start before the leader holds the flight, or it
	// would become the leader itself and never park.
	for {
		c.mu.Lock()
		_, registered := c.inflight[key]
		c.mu.Unlock()
		if registered {
			break
		}
		time.Sleep(time.Millisecond)
	}
	waiterRes := make(chan Result, 1)
	go func() {
		res, err := c.MemoCtx(context.Background(), key, func() ([]Result, error) {
			// The retry path: this waiter becomes the new leader.
			return []Result{{Status: Unsat}}, nil
		})
		if err != nil {
			t.Error(err)
			res = []Result{{}}
		}
		waiterRes <- res[0]
	}()
	for c.waitersOf(key) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	close(release)
	select {
	case res := <-waiterRes:
		if res.Status != Unsat {
			t.Errorf("waiter status = %v, want Unsat from its own retry", res.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never recovered from leader cancellation")
	}
	<-leaderDone
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (only the retry's result cached)", st.Entries)
	}
}

// referenceCacheKey is CacheKey as it was before hashing through a
// buffer: each limit written on its own, the source copied to a slice.
func referenceCacheKey(src string, limits Limits) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range []int64{limits.MaxSatSteps, int64(limits.MaxInstantiations),
		int64(limits.MaxRounds), int64(limits.MaxTheoryLemmas), int64(limits.Timeout)} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// TestCacheKeyMatchesReference: for random sources of every length around
// the hashing buffer's size and random limits, CacheKey is the old key.
func TestCacheKeyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for i := 0; i < 3000; i++ {
		src := make([]byte, r.Intn(2100))
		r.Read(src)
		limits := Limits{
			MaxSatSteps: r.Int63() - r.Int63(), MaxInstantiations: r.Intn(1 << 20), MaxRounds: r.Intn(100),
			MaxTheoryLemmas: r.Intn(1000), Timeout: time.Duration(r.Int63()),
		}
		if got, want := CacheKey(string(src), limits), referenceCacheKey(string(src), limits); got != want {
			t.Fatalf("source %d (%d bytes): key %s, reference %s", i, len(src), got, want)
		}
	}
}
