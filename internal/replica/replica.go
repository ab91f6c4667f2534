// Package replica turns a quagmired process into a read follower: it
// bootstraps a local disk store from the primary's snapshot stream, tails
// the primary's WAL stream applying each CRC-framed record through the
// shared state machine, and keeps the applied watermark durable in its own
// WAL (primary sequence numbers are preserved verbatim, so recovery
// recomputes the watermark exactly like it recomputes local state).
//
// The tail loop is a supervision loop: a dropped connection or a torn
// frame discards the partial record and reconnects with jittered
// exponential backoff, resuming from the local watermark (delivery is
// at-least-once; the store skips duplicates). The primary keeps one
// compacted WAL generation beside its live log, so a follower that lags by
// less than one compaction window keeps tailing across a compaction. When
// the primary answers 410 Gone — it compacted past the follower's
// watermark twice, or the watermark is ahead of the primary's own (the
// primary's directory was restored from an older backup or re-created) —
// the follower re-bootstraps from a fresh snapshot and resumes tailing
// from the new watermark. Replication is
// asynchronous: a follower serves reads that may trail the primary by the
// current lag, and read-your-writes holds only on the primary.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/store"
)

// ErrReadOnly reports a write attempted against a follower's store facade.
// Writes belong on the primary; the HTTP layer translates this to 403.
var ErrReadOnly = errors.New("replica: store is read-only (writes go to the primary)")

// errGone signals the primary cannot tail from our watermark (HTTP 410):
// it compacted past it, or it is behind it.
var errGone = errors.New("replica: primary cannot tail from our watermark")

// Replication metric names.
const (
	metricLagSeq     = "quagmire_replica_lag_seq"
	metricLagSecs    = "quagmire_replica_lag_seconds"
	metricApplied    = "quagmire_replica_applied_seq"
	metricPrimary    = "quagmire_replica_primary_seq"
	metricReconnects = "quagmire_replica_reconnects_total"
	metricBootstraps = "quagmire_replica_bootstraps_total"
	metricRecords    = "quagmire_replica_records_applied_total"
)

// Options configures a follower.
type Options struct {
	// Primary is the primary's base URL (e.g. http://primary:8080);
	// required.
	Primary string
	// Dir is the follower's local data directory; required. A directory
	// that already holds a store resumes from its watermark; an empty one
	// bootstraps from the primary's snapshot.
	Dir string
	// Store configures the local disk store (metrics, compaction
	// threshold, sync policy).
	Store store.Options
	// Logger receives replication lifecycle logs; nil disables.
	Logger *log.Logger
	// Client issues the HTTP requests; nil selects a default with no
	// overall timeout (the WAL tail is a deliberately long-lived stream).
	Client *http.Client
	// BackoffMin/BackoffMax bound the jittered reconnect backoff; zero
	// selects 100ms / 5s.
	BackoffMin, BackoffMax time.Duration
}

// Hooks are the serving layer's callbacks into the apply loop. Reads need
// neither: a record is visible in the store before OnApply runs.
type Hooks struct {
	// OnApply runs after each record is durably applied — the server uses
	// it to free the engine of the version the record supersedes.
	OnApply func(store.Record)
	// OnReload runs after a snapshot re-bootstrap replaced store state
	// wholesale; the server empties its engine cache in it.
	OnReload func() error
}

// Status is the follower's replication self-report, rendered into
// /healthz on a follower.
type Status struct {
	Primary    string  `json:"primary"`
	Connected  bool    `json:"connected"`
	AppliedSeq uint64  `json:"applied_seq"`
	PrimarySeq uint64  `json:"primary_seq"`
	LagSeq     uint64  `json:"lag_seq"`
	LagSeconds float64 `json:"lag_seconds"`
	Reconnects uint64  `json:"reconnects"`
	Bootstraps uint64  `json:"bootstraps"`
}

// Follower is a replicated read store: it implements store.PolicyStore
// (reads delegate to the local disk store, writes fail with ErrReadOnly)
// and store.Replicator (so a follower can itself feed further followers),
// while a background loop keeps the local store converging on the
// primary. Create with New, start the loop with Start, stop with Close.
type Follower struct {
	opts   Options
	client *http.Client
	hooks  Hooks

	mu         sync.RWMutex
	disk       *store.Disk
	connected  bool
	primarySeq uint64
	lastApply  time.Time
	reconnects uint64
	bootstraps uint64

	cancel context.CancelFunc
	done   chan struct{}
	closed sync.Once
}

// New opens the follower's local store, bootstrapping it from the
// primary's snapshot endpoint when the directory holds no store yet. The
// tail loop does not start until Start — create the server over the
// returned Follower first, then hand its hooks to Start.
func New(opts Options) (*Follower, error) {
	if opts.Primary == "" || opts.Dir == "" {
		return nil, fmt.Errorf("replica: Primary and Dir are required")
	}
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	f := &Follower{opts: opts, client: opts.Client}
	if f.client == nil {
		f.client = &http.Client{}
	}
	if !store.HasState(opts.Dir) {
		if err := f.bootstrap(context.Background()); err != nil {
			return nil, err
		}
	}
	d, err := store.OpenDisk(opts.Dir, opts.Store)
	if err != nil {
		return nil, fmt.Errorf("replica: open local store: %w", err)
	}
	f.disk = d
	f.registerMetrics()
	f.logf("replica: local store at seq %d, primary %s", d.Seq(), opts.Primary)
	return f, nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logger != nil {
		f.opts.Logger.Printf(format, args...)
	}
}

func (f *Follower) registerMetrics() {
	reg := f.opts.Store.Obs
	if reg == nil {
		return
	}
	reg.SetHelp(metricLagSeq, "Sequence numbers the follower trails the primary by (0 = caught up).")
	reg.SetHelp(metricLagSecs, "Seconds since the lagging follower last applied a record (0 when caught up).")
	reg.GaugeFunc(metricLagSeq, func() float64 { return float64(f.Status().LagSeq) })
	reg.GaugeFunc(metricLagSecs, func() float64 { return f.Status().LagSeconds })
	reg.GaugeFunc(metricApplied, func() float64 { return float64(f.Seq()) })
	reg.GaugeFunc(metricPrimary, func() float64 { return float64(f.Status().PrimarySeq) })
	// Counters export from 0 rather than appearing on first increment.
	reg.Counter(metricReconnects)
	reg.Counter(metricBootstraps)
	reg.Counter(metricRecords)
}

// Start launches the tail loop. Call exactly once, after the serving
// layer exists to receive hooks.
func (f *Follower) Start(hooks Hooks) {
	f.hooks = hooks
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done = make(chan struct{})
	go f.run(ctx)
}

// run is the supervision loop: tail until the stream breaks, classify the
// failure, back off, repeat.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	backoff := f.opts.BackoffMin
	for {
		applied, err := f.tailOnce(ctx)
		f.setConnected(false)
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errGone) {
			if berr := f.rebootstrap(ctx); berr != nil {
				f.logf("replica: re-bootstrap failed: %v", berr)
			} else {
				backoff = f.opts.BackoffMin
				continue
			}
		} else if err != nil && !errors.Is(err, io.EOF) {
			f.logf("replica: stream broke at seq %d: %v", f.Seq(), err)
		}
		if applied > 0 {
			backoff = f.opts.BackoffMin // forward progress resets the clock
		}
		f.countReconnect()
		// Full jitter: sleep a uniform fraction of the current ceiling so a
		// fleet of followers does not reconnect in lockstep after a primary
		// restart.
		sleep := time.Duration(rand.Int63n(int64(backoff))) + time.Millisecond
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > f.opts.BackoffMax {
			backoff = f.opts.BackoffMax
		}
	}
}

// tailOnce opens one WAL stream from the local watermark and applies
// records until it breaks. It returns how many records it applied and why
// the stream ended (io.EOF for a clean server-side close).
func (f *Follower) tailOnce(ctx context.Context) (int, error) {
	from := f.Seq()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.opts.Primary+"/v1/replicate/wal?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return 0, errGone
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("replica: primary answered %s: %s", resp.Status, body)
	}
	if hdr := resp.Header.Get("X-Quagmire-Seq"); hdr != "" {
		if seq, perr := strconv.ParseUint(hdr, 10, 64); perr == nil {
			f.notePrimarySeq(seq)
		}
	}
	f.setConnected(true)
	applied := 0
	rr := store.NewRecordReader(resp.Body)
	for {
		rec, err := rr.Next()
		if err != nil {
			// io.EOF is a clean close; ErrBadFrame is a record cut mid-flight.
			// Either way nothing partial was returned, the watermark is where
			// it was, and the reconnect re-requests from it.
			return applied, err
		}
		if err := f.apply(rec); err != nil {
			return applied, err
		}
		applied++
	}
}

// apply makes one record durable locally and runs the serving hook.
func (f *Follower) apply(rec store.Record) error {
	f.mu.RLock()
	d := f.disk
	f.mu.RUnlock()
	if err := d.ApplyRecord(rec); err != nil {
		return err
	}
	f.mu.Lock()
	if rec.Seq > f.primarySeq {
		f.primarySeq = rec.Seq
	}
	f.lastApply = time.Now()
	f.mu.Unlock()
	if reg := f.opts.Store.Obs; reg != nil {
		reg.Counter(metricRecords).Inc()
	}
	if f.hooks.OnApply != nil {
		f.hooks.OnApply(rec)
	}
	return nil
}

// bootstrap streams the primary's snapshot into the data directory. The
// local store must not be open.
func (f *Follower) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.Primary+"/v1/replicate/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: fetch snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: snapshot fetch answered %s: %s", resp.Status, body)
	}
	seq, err := store.InstallSnapshot(f.opts.Dir, resp.Body)
	if err != nil {
		return err
	}
	if reg := f.opts.Store.Obs; reg != nil {
		reg.Counter(metricBootstraps).Inc()
	}
	f.mu.Lock()
	f.bootstraps++
	if seq > f.primarySeq {
		f.primarySeq = seq
	}
	f.mu.Unlock()
	f.logf("replica: bootstrapped snapshot at seq %d from %s", seq, f.opts.Primary)
	return nil
}

// rebootstrap replaces the local store wholesale after the primary
// refused our watermark with 410: close the current store without
// snapshotting it (the new snapshot replaces it anyway), install a fresh
// snapshot, reopen, and tell the serving layer to reload. Reads hitting
// the brief closed window fail with ErrClosed and retry; durability is
// never at risk (the old snapshot and WAL stay in place until the
// validated new snapshot renames over them).
func (f *Follower) rebootstrap(ctx context.Context) error {
	f.logf("replica: primary answered 410 Gone for watermark %d; re-bootstrapping", f.Seq())
	f.mu.RLock()
	d := f.disk
	f.mu.RUnlock()
	if err := d.CloseWithoutSnapshot(); err != nil && !errors.Is(err, store.ErrClosed) {
		return fmt.Errorf("replica: close before re-bootstrap: %w", err)
	}
	if err := f.bootstrap(ctx); err != nil {
		// The old store is closed, its snapshot and WAL still on disk;
		// reopen it so reads keep serving the stale-but-consistent state.
		if reopened, rerr := store.OpenDisk(f.opts.Dir, f.opts.Store); rerr == nil {
			f.swap(reopened)
		}
		return err
	}
	nd, err := store.OpenDisk(f.opts.Dir, f.opts.Store)
	if err != nil {
		return fmt.Errorf("replica: reopen after re-bootstrap: %w", err)
	}
	f.swap(nd)
	if f.hooks.OnReload != nil {
		if err := f.hooks.OnReload(); err != nil {
			f.logf("replica: serving-layer reload failed: %v", err)
		}
	}
	return nil
}

func (f *Follower) swap(d *store.Disk) {
	f.mu.Lock()
	f.disk = d
	f.mu.Unlock()
}

func (f *Follower) setConnected(v bool) {
	f.mu.Lock()
	f.connected = v
	f.mu.Unlock()
}

func (f *Follower) notePrimarySeq(seq uint64) {
	f.mu.Lock()
	if seq > f.primarySeq {
		f.primarySeq = seq
	}
	f.mu.Unlock()
}

func (f *Follower) countReconnect() {
	f.mu.Lock()
	f.reconnects++
	f.mu.Unlock()
	if reg := f.opts.Store.Obs; reg != nil {
		reg.Counter(metricReconnects).Inc()
	}
}

// Status reports the follower's replication state.
func (f *Follower) Status() Status {
	applied := f.Seq()
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := Status{
		Primary:    f.opts.Primary,
		Connected:  f.connected,
		AppliedSeq: applied,
		PrimarySeq: f.primarySeq,
		Reconnects: f.reconnects,
		Bootstraps: f.bootstraps,
	}
	if st.PrimarySeq > applied {
		st.LagSeq = st.PrimarySeq - applied
		if !f.lastApply.IsZero() {
			st.LagSeconds = time.Since(f.lastApply).Seconds()
		}
	}
	return st
}

// StatusAny adapts Status for server.ReplicaOptions.Status.
func (f *Follower) StatusAny() any { return f.Status() }

// WaitFor blocks until the applied watermark reaches seq or ctx ends —
// the conformance suite's "lag reached 0" barrier.
func (f *Follower) WaitFor(ctx context.Context, seq uint64) error {
	for {
		if f.Seq() >= seq {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica: waiting for seq %d (at %d): %w", seq, f.Seq(), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Kill stops the tail loop and abandons the local store — the conformance
// suite's SIGKILL: no final compaction, no snapshot, no goodbye. A
// background compaction already running finishes first (the process dies
// after its last step), so no goroutine of the dead follower touches the
// directory a new one opens. The files stay as the crash left them, and a
// new Follower over the same directory must recover the watermark by
// replay.
func (f *Follower) Kill() {
	if f.cancel != nil {
		f.cancel()
		<-f.done
	}
	f.store().CloseWithoutSnapshot()
}

// Close stops the tail loop and closes the local store.
func (f *Follower) Close() error {
	var err error
	f.closed.Do(func() {
		if f.cancel != nil {
			f.cancel()
			<-f.done
		}
		f.mu.RLock()
		d := f.disk
		f.mu.RUnlock()
		err = d.Close()
	})
	return err
}

// --- store.PolicyStore facade: reads delegate, writes refuse. ---

func (f *Follower) store() *store.Disk {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.disk
}

// Create always fails: followers are read-only.
func (f *Follower) Create(string, store.Version) (store.Policy, error) {
	return store.Policy{}, ErrReadOnly
}

// AppendBatch always fails: followers are read-only.
func (f *Follower) AppendBatch([]store.BatchEntry) ([]store.Policy, error) {
	return nil, ErrReadOnly
}

// Append always fails: followers are read-only.
func (f *Follower) Append(string, int, store.Version) (store.Policy, error) {
	return store.Policy{}, ErrReadOnly
}

func (f *Follower) Get(id string) (store.Policy, error) { return f.store().Get(id) }
func (f *Follower) List() ([]store.Policy, error)       { return f.store().List() }
func (f *Follower) Versions(id string) ([]store.VersionMeta, error) {
	return f.store().Versions(id)
}
func (f *Follower) Version(id string, n int) (store.Version, error) {
	return f.store().Version(id, n)
}
func (f *Follower) LoadPayload(id string, n int) ([]byte, error) {
	return f.store().LoadPayload(id, n)
}

// Health reports the local store's health; the replication status itself
// travels in the /healthz replica section, not here.
func (f *Follower) Health() store.Health { return f.store().Health() }

// --- store.Replicator facade: a follower can feed further followers. ---

func (f *Follower) SnapshotTo(w io.Writer, started func(uint64)) (uint64, error) {
	return f.store().SnapshotTo(w, started)
}
func (f *Follower) ReplayFrom(seq uint64, fn func(store.Record) error) error {
	return f.store().ReplayFrom(seq, fn)
}
func (f *Follower) WaitSeq(ctx context.Context, after uint64) (uint64, error) {
	return f.store().WaitSeq(ctx, after)
}

// Seq is the follower's applied watermark.
func (f *Follower) Seq() uint64 { return f.store().Seq() }
