package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client issues the benchmark's HTTP requests over at most nproc
// connections, opening a "client" span around each when tracing.
type client struct {
	http *http.Client
	tr   *tracer
}

func newClient(conns int, tr *tracer) *client {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: 2 * conns}
	return &client{http: &http.Client{Transport: tp, Timeout: 2 * time.Minute}, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status and body; a transport
// error comes back as err.
func (c *client) do(ctx context.Context, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	ctx, end := c.tr.start(ctx, "client", method+" "+routeOf(urlPath(url)))
	defer end()
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	inject(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// getJSON fetches url and decodes a 200 response into v.
func (c *client) getJSON(url string, v any) error {
	code, raw, err := c.do(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", urlPath(url), code, raw)
	}
	return json.Unmarshal(raw, v)
}

func urlPath(url string) string {
	for i, slashes := 0, 0; i < len(url); i++ {
		if url[i] == '/' {
			if slashes++; slashes == 3 {
				return url[i:]
			}
		}
	}
	return url
}

// classStats is one request class's outcome: latencies of successes,
// failures (transport errors and non-2xx, refusals included).
type classStats struct {
	mu     sync.Mutex
	lat    []time.Duration
	failed int
}

func (s *classStats) record(d time.Duration, ok bool) {
	s.mu.Lock()
	if ok {
		s.lat = append(s.lat, d)
	} else {
		s.failed++
	}
	s.mu.Unlock()
}

func (s *classStats) attempted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lat) + s.failed
}

// percentile is the nearest-rank p-th percentile (0..100) in ms. A failed
// request misses every latency limit, so failures rank above every
// success.
func (s *classStats) percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.lat) + s.failed
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.lat) {
		return math.Inf(1)
	}
	sorted := append([]time.Duration(nil), s.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ms(sorted[rank])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// op is one request the generator sends; ok reports whether the response
// counts as a success (the caller also checks response content).
type op struct {
	class string
	send  func(ctx context.Context) bool
}

// loadResult gathers per-class stats and generator lateness.
type loadResult struct {
	classes map[string]*classStats
	late    classStats
	elapsed time.Duration
}

func newLoadResult() *loadResult { return &loadResult{classes: map[string]*classStats{}} }

func (r *loadResult) class(name string) *classStats {
	if r.classes[name] == nil {
		r.classes[name] = &classStats{}
	}
	return r.classes[name]
}

// openLoop sends rate requests per second from next, through `senders`
// goroutines (one client connection each), until stop closes. A sender
// takes the next scheduled request, waits for its send time if it is
// early, and times it from that scheduled time, so a stall charges every
// request queued behind it; lateness is how far behind schedule a request
// left. A request due after stop closed is not sent.
func openLoop(rate float64, senders int, next func() op, stop <-chan struct{}) *loadResult {
	res := newLoadResult()
	var mu sync.Mutex // guards res.classes and next
	interval := time.Duration(float64(time.Second) / rate)
	var scheduled atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				due := start.Add(time.Duration(scheduled.Add(1)-1) * interval)
				if !waitUntil(due, stop) {
					return
				}
				mu.Lock()
				o := next()
				cs := res.class(o.class)
				mu.Unlock()
				res.late.record(time.Since(due), true)
				ok := o.send(context.Background())
				cs.record(time.Since(due), ok)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// waitUntil sleeps until t and reports whether it got there before stop
// closed.
func waitUntil(t time.Time, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-stop:
		return false
	case <-timer.C:
		return true
	}
}

// closedLoop runs `clients` back-to-back senders until n requests have
// been sent and returns the completed-request stats; each sender takes
// its next request only after the previous one returned, and times it
// from its send.
func closedLoop(clients, n int, next func() op) *loadResult {
	res := newLoadResult()
	var mu sync.Mutex // guards res.classes and next
	var taken atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for taken.Add(1) <= int64(n) {
				mu.Lock()
				o := next()
				cs := res.class(o.class)
				mu.Unlock()
				begin := time.Now()
				ok := o.send(context.Background())
				cs.record(time.Since(begin), ok)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// rate counts successful requests of a class per second.
func (r *loadResult) rate(class string) float64 {
	cs := r.classes[class]
	if cs == nil || r.elapsed <= 0 {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return float64(len(cs.lat)) / r.elapsed.Seconds()
}

// counts sums attempted and failed requests over every class.
func (r *loadResult) counts() (attempted, failed int) {
	for _, cs := range r.classes {
		cs.mu.Lock()
		attempted += len(cs.lat) + cs.failed
		failed += cs.failed
		cs.mu.Unlock()
	}
	return attempted, failed
}
