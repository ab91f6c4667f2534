package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is 0 for a root
// span (store wrapper spans are always roots: PolicyStore carries no
// context). Req groups the spans of one client request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while enabled; a disabled tracer records
// nothing and costs one atomic load per boundary.
type tracer struct {
	t0      time.Time
	enabled atomic.Bool
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

// spanRef is what a context carries: the enclosing span and its request.
type spanRef struct{ id, req uint64 }

// start opens a span under ctx's span (if any) and returns a context
// carrying the new span plus its end function.
func (t *tracer) start(ctx context.Context, layer, name string) (context.Context, func()) {
	if t == nil || !t.enabled.Load() {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	req := parent.req
	if req == 0 {
		req = t.nextID.Add(1)
	}
	s := span{ID: t.nextID.Add(1), Parent: parent.id, Req: req, Layer: layer, Name: name, Start: int64(time.Since(t.t0))}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, req: req})
	return ctx, func() { t.finish(s) }
}

func (t *tracer) finish(s span) {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Header names carrying a client span across the loopback hop.
const (
	headerSpan = "X-Bench-Span"
	headerReq  = "X-Bench-Req"
)

// inject copies ctx's span onto an outgoing request.
func inject(ctx context.Context, r *http.Request) {
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		r.Header.Set(headerSpan, strconv.FormatUint(ref.id, 10))
		r.Header.Set(headerReq, strconv.FormatUint(ref.req, 10))
	}
}

// middleware wraps the server's handler in a "server" span parented to
// the client span named in the request headers, and puts it in the
// request context so llm wrapper spans beneath the handler get a parent.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled.Load() {
			next.ServeHTTP(w, r)
			return
		}
		ctx := r.Context()
		id, _ := strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
		if id != 0 {
			ctx = context.WithValue(ctx, spanKey{}, spanRef{id: id, req: req})
		}
		ctx, end := t.start(ctx, "server", r.Method+" "+routeOf(r.URL.Path))
		defer end()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// routeOf collapses policy IDs so span names group by route.
func routeOf(path string) string {
	const prefix = "/v1/policies/"
	if len(path) <= len(prefix) || path[:len(prefix)] != prefix {
		return path
	}
	rest := path[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			return prefix + "{id}" + rest[i:]
		}
	}
	return prefix + "{id}"
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) []layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		lt := rows[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			rows[s.Layer] = lt
		}
		dur := s.End - s.Start
		lt.Spans++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(rows))
	for _, lt := range rows {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// writeSpans saves the recorded spans as a JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, rows []layerTime) {
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "%-8s %8s %12s %12s %7s\n", "layer", "spans", "total", "self", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.Self) / float64(all)
		}
		fmt.Fprintf(w, "%-8s %8d %12s %12s %6.1f%%\n", r.Layer, r.Spans,
			r.Total.Round(time.Microsecond), r.Self.Round(time.Microsecond), share)
	}
}
