package llm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// CachingClient memoizes completions by prompt content hash, providing the
// paper's "caching mechanisms ... to enable incremental processing".
type CachingClient struct {
	// Inner is the wrapped client.
	Inner Client

	mu    sync.Mutex
	cache map[[sha256.Size]byte]Response
	hits  int
	calls int
}

// NewCachingClient wraps inner with a memoization layer.
func NewCachingClient(inner Client) *CachingClient {
	return &CachingClient{Inner: inner, cache: map[[sha256.Size]byte]Response{}}
}

// digest is the SHA-256 of the task, a zero byte and the prompt; the hash
// doubles as the segment identity used for diff-based re-extraction. The
// strings are hashed through a fixed buffer rather than copied.
func digest(req Request) [sha256.Size]byte {
	h := sha256.New()
	var buf [512]byte
	for _, s := range [...]string{string(req.Task), "\x00", req.Prompt} {
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// cacheKey is the digest in hex, as transcripts record it.
func cacheKey(req Request) string {
	d := digest(req)
	return hex.EncodeToString(d[:])
}

// Complete implements Client with memoization.
func (c *CachingClient) Complete(ctx context.Context, req Request) (Response, error) {
	key := digest(req)
	c.mu.Lock()
	c.calls++
	if resp, ok := c.cache[key]; ok {
		c.hits++
		c.mu.Unlock()
		return resp, nil
	}
	c.mu.Unlock()
	resp, err := c.Inner.Complete(ctx, req)
	if err != nil {
		return Response{}, err
	}
	c.mu.Lock()
	c.cache[key] = resp
	c.mu.Unlock()
	return resp, nil
}

// HitRate returns cache hits / total calls, for instrumentation.
func (c *CachingClient) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.calls)
}

// Hits returns the number of cache hits so far.
func (c *CachingClient) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// RetryClient retries transient failures with capped exponential backoff,
// as a production LLM client must.
type RetryClient struct {
	// Inner is the wrapped client.
	Inner Client
	// MaxAttempts caps attempts; default 3.
	MaxAttempts int
	// BaseDelay is the first backoff delay; default 10ms. Tests use 0.
	BaseDelay time.Duration
	// Sleep is swappable for tests; defaults to time.Sleep-with-context.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Complete implements Client with retry on ErrOverloaded and
// ErrMalformedOutput.
func (c *RetryClient) Complete(ctx context.Context, req Request) (Response, error) {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	delay := c.BaseDelay
	if delay == 0 {
		delay = 10 * time.Millisecond
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		resp, err := c.Inner.Complete(ctx, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrMalformedOutput) {
			return Response{}, err
		}
		if i+1 < attempts {
			if err := sleep(ctx, delay); err != nil {
				return Response{}, err
			}
			delay *= 2
		}
	}
	return Response{}, lastErr
}

// RateLimitedClient enforces a simple token-bucket request rate, standing in
// for provider-side quotas.
type RateLimitedClient struct {
	// Inner is the wrapped client.
	Inner Client

	mu     sync.Mutex
	tokens float64
	last   time.Time
	// PerSecond is the sustained request rate; default 100.
	PerSecond float64
	// Burst is the bucket capacity; default PerSecond.
	Burst float64
	// Now is swappable for tests.
	Now func() time.Time
}

// Complete implements Client, blocking-free: requests beyond the rate get
// ErrOverloaded (callers wrap with RetryClient).
func (c *RateLimitedClient) Complete(ctx context.Context, req Request) (Response, error) {
	now := time.Now
	if c.Now != nil {
		now = c.Now
	}
	c.mu.Lock()
	rate := c.PerSecond
	if rate <= 0 {
		rate = 100
	}
	burst := c.Burst
	if burst <= 0 {
		burst = rate
	}
	t := now()
	if c.last.IsZero() {
		c.tokens = burst
	} else {
		c.tokens += t.Sub(c.last).Seconds() * rate
		if c.tokens > burst {
			c.tokens = burst
		}
	}
	c.last = t
	if c.tokens < 1 {
		c.mu.Unlock()
		return Response{}, ErrOverloaded
	}
	c.tokens--
	c.mu.Unlock()
	return c.Inner.Complete(ctx, req)
}

// FlakyClient injects deterministic failures for testing degradation
// paths: every Nth request fails with Err before reaching Inner.
type FlakyClient struct {
	// Inner is the wrapped client.
	Inner Client
	// EveryN makes request numbers divisible by EveryN fail; 0 disables.
	EveryN int
	// Err is the injected error; defaults to ErrOverloaded.
	Err error

	mu sync.Mutex
	n  int
}

// Complete implements Client with periodic failure injection.
func (c *FlakyClient) Complete(ctx context.Context, req Request) (Response, error) {
	c.mu.Lock()
	c.n++
	fail := c.EveryN > 0 && c.n%c.EveryN == 0
	c.mu.Unlock()
	if fail {
		if c.Err != nil {
			return Response{}, c.Err
		}
		return Response{}, ErrOverloaded
	}
	return c.Inner.Complete(ctx, req)
}
