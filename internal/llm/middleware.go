package llm

import (
	"context"
	"crypto/sha256"
	"sync"
)

// CachingClient memoizes completions by prompt content hash, providing the
// paper's "caching mechanisms ... to enable incremental processing".
type CachingClient struct {
	// Inner is the wrapped client.
	Inner Client

	mu    sync.Mutex
	cache map[[sha256.Size]byte]Response
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

// Complete implements Client with memoization.
func (c *CachingClient) Complete(ctx context.Context, req Request) (Response, error) {
	key := digest(req)
	c.mu.Lock()
	if resp, ok := c.cache[key]; ok {
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
