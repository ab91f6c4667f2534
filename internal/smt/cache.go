package smt

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/smtlib"
)

// ResultCache memoizes RunScript outcomes — one Result per check of the
// script — by a content hash of the SMT-LIB script plus the solver limits,
// so repeated or overlapping queries skip the solver entirely. Concurrent
// misses on the same key are deduplicated singleflight-style: one
// goroutine (the leader) runs the solver while the others wait and share
// its results, so AskBatch never burns CPU solving the same problem twice. All methods
// are safe for concurrent use; the solver itself stays deterministic, so
// cached Results are bit-identical to recomputed ones — except
// Stats.Elapsed, which on a hit reports the actual lookup (or wait) time
// with Stats.FromCache set, never the original solve's duration.
type ResultCache struct {
	mu      sync.Mutex
	entries map[string][]Result
	// order tracks insertion for FIFO eviction once max is exceeded.
	order    []string
	max      int
	inflight map[string]*inflightSolve
	hits     uint64
	miss     uint64
	// suppressed counts lookups that joined an in-flight solve instead of
	// starting a duplicate one (each is also counted as a hit).
	suppressed uint64
	evictions  uint64
}

// inflightSolve is one in-progress computation shared by concurrent
// lookups of the same key. res/err are written exactly once, before done
// is closed.
type inflightSolve struct {
	done    chan struct{}
	waiters int
	res     []Result
	err     error
}

// DefaultCacheSize bounds a cache constructed with size <= 0.
const DefaultCacheSize = 4096

// NewResultCache returns a cache holding the results of at most max
// scripts (FIFO eviction); max <= 0 selects DefaultCacheSize.
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &ResultCache{
		entries:  map[string][]Result{},
		inflight: map[string]*inflightSolve{},
		max:      max,
	}
}

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	// Hits counts lookups answered without running the solver — from a
	// stored entry or by sharing an in-flight solve.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to run the solver.
	Misses uint64 `json:"misses"`
	// Suppressed counts the subset of Hits that were duplicate concurrent
	// solves deduplicated singleflight-style (the stampede that PR 1's
	// AskBatch made routine).
	Suppressed uint64 `json:"suppressed"`
	// Evictions counts entries dropped by FIFO eviction.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of cached scripts.
	Entries int `json:"entries"`
}

// Stats returns a snapshot of the counters.
func (c *ResultCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits,
		Misses:     c.miss,
		Suppressed: c.suppressed,
		Evictions:  c.evictions,
		Entries:    len(c.entries),
	}
}

// CacheKey hashes problem source text together with every limit field: a
// different budget can change the verdict (unknown vs decided), so limits
// are part of the identity.
//
// The limits and then the source go through one fixed buffer, so hashing
// a script copies none of it to the heap.
func CacheKey(src string, limits Limits) string {
	h := sha256.New()
	var buf [512]byte
	for i, v := range [...]int64{limits.MaxSatSteps, int64(limits.MaxInstantiations),
		int64(limits.MaxRounds), int64(limits.MaxTheoryLemmas), int64(limits.Timeout)} {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	h.Write(buf[:40])
	for len(src) > 0 {
		n := copy(buf[:], src)
		h.Write(buf[:n])
		src = src[n:]
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// putLocked stores a result, evicting the oldest entry when full. The
// caller holds c.mu.
func (c *ResultCache) putLocked(key string, res []Result) {
	if _, ok := c.entries[key]; ok {
		return
	}
	for len(c.entries) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
		c.evictions++
	}
	c.entries[key] = res
	c.order = append(c.order, key)
}

// hit returns a copy of res marked as answered from the cache: FromCache
// is set and Elapsed reports the caller's actual lookup/wait time instead
// of the original solve's duration, so per-query timing stays honest. The
// stored slice is shared and never modified.
func hit(res []Result, since time.Time) []Result {
	out := make([]Result, len(res))
	elapsed := time.Since(since)
	for i, r := range res {
		r.Stats.FromCache = true
		r.Stats.Elapsed = elapsed
		out[i] = r
	}
	return out
}

// MemoCtx answers the keyed script from the cache, or runs compute and
// stores its results, deduplicating concurrent computations of the same
// key. A nil cache degrades to a plain compute. Errors are never cached: a
// malformed problem fails the same way every time and is cheap to
// re-reject. A caller waiting on another goroutine's in-flight solve
// returns ctx.Err() as soon as ctx is cancelled instead of waiting the
// solve out; the leader's compute is responsible for honoring its own
// context (RunScriptCtx does).
func (c *ResultCache) MemoCtx(ctx context.Context, key string, compute func() ([]Result, error)) ([]Result, error) {
	if c == nil {
		return compute()
	}
	for {
		start := time.Now()
		c.mu.Lock()
		if res, ok := c.entries[key]; ok {
			c.hits++
			c.mu.Unlock()
			return hit(res, start), nil
		}
		if fl, ok := c.inflight[key]; ok {
			fl.waiters++
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err != nil {
				// A leader cancelled by its own context must not poison
				// waiters whose contexts are still live: retry (typically
				// becoming the new leader). Other errors are shared — the
				// same input fails the same way for everyone.
				if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					continue
				}
				return nil, fl.err
			}
			c.mu.Lock()
			c.hits++
			c.suppressed++
			c.mu.Unlock()
			return hit(fl.res, start), nil
		}
		// Miss with no flight in progress: become the leader.
		c.miss++
		fl := &inflightSolve{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()

		res, err := compute()

		c.mu.Lock()
		delete(c.inflight, key)
		// Store a copy: the caller owns the returned slice.
		stored := append([]Result(nil), res...)
		fl.res, fl.err = stored, err
		if err == nil {
			c.putLocked(key, stored)
		}
		c.mu.Unlock()
		close(fl.done)
		return res, err
	}
}

// waitersOf reports how many goroutines are parked on the key's in-flight
// solve; used by tests to deterministically observe stampede suppression.
func (c *ResultCache) waitersOf(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.inflight[key]; ok {
		return fl.waiters
	}
	return 0
}

// RunCachedCtx answers a script's checks through the cache, as RunScriptCtx
// answers its text src: memoized by src + limits, and on a miss by solving
// the problem that problem builds, which must be what src decodes to, so a
// hit builds nothing and a miss never parses src. A nil cache degrades to a
// plain run. A cancelled run is returned as an error (never cached), so a
// later lookup with a live context re-solves. Building and clausifying a
// large problem do not poll the context, so a fresh solve runs on its own
// goroutine and the caller returns as soon as ctx ends, no longer reading
// res; the abandoned solve stops at its next poll.
func RunCachedCtx(ctx context.Context, c *ResultCache, src string, problem func() *smtlib.Problem, limits Limits) ([]Result, error) {
	return c.MemoCtx(ctx, CacheKey(src, limits), func() ([]Result, error) {
		var res []Result
		done := make(chan struct{})
		go func() {
			defer close(done)
			res = runProblem(ctx, problem(), limits)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return res, nil
	})
}
