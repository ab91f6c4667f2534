package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// legacyV1Name names the monolithic JSON snapshot (codec 1) that builds
// before snapshot format v2 wrote. It is no longer read: a directory that
// holds only this file is refused with an upgrade path (see
// checkNotLegacyV1), and one that also holds snapshot.v2 keeps v2 as the
// authority while compaction deletes the stale file.
const legacyV1Name = "store-snapshot.json"

// defaultSnapshotThreshold compacts the WAL once it exceeds 4 MiB.
const defaultSnapshotThreshold = 4 << 20

// walFile is the WAL's file handle. *os.File satisfies it; tests
// substitute failure-injecting wrappers.
type walFile interface {
	io.Writer
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Disk is the durable PolicyStore: a snapshot file plus an append-only
// CRC-framed record log, both under one directory. Every mutation is
// logged before it is applied; recovery loads the snapshot and replays
// the log, truncating a corrupted tail at the last intact record.
type Disk struct {
	opts    Options
	dir     string
	walPath string

	mu       sync.RWMutex
	c        *core
	wal      walFile
	walBytes int64
	// walIndex locates every intact record in wal.log, in file order.
	// Sequence numbers only grow through the file, so ReplayFrom finds the
	// first record past a watermark by binary search and reads only from
	// there.
	walIndex []walEntry
	// seq is the sequence number of the last durable WAL record (or the
	// snapshot watermark right after recovery/compaction).
	seq uint64
	// seqWatch is closed and replaced whenever seq advances; WaitSeq parks
	// on it so WAL-tail streams long-poll instead of spinning. Close wakes
	// all waiters by closing the final channel.
	seqWatch chan struct{}
	// snapFile is the open v2 snapshot lazy payload loads ReadAt from;
	// nil when the store was booted without a snapshot.
	snapFile *snapshotFile
	// snapSeq is the watermark of the on-disk snapshot: records at or
	// below it are compacted away and unavailable to ReplayFrom.
	snapSeq uint64
	closed  bool
	// lastErr is the most recent WAL write failure; it degrades Health
	// until a subsequent write succeeds.
	lastErr error
	// failed is set when a torn WAL frame could not be rolled back; the
	// store then refuses all further writes (reads stay available) so no
	// acknowledged write can land beyond an unparseable tail.
	failed error
}

// walEntry is one walIndex entry: a record's sequence number and the byte
// offset of its frame in wal.log.
type walEntry struct {
	seq uint64
	off int64
}

// OpenDisk opens (creating if needed) a durable store rooted at dir and
// recovers its state: snapshot first, then WAL replay.
func OpenDisk(dir string, opts Options) (*Disk, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %q: %w", dir, err)
	}
	d := &Disk{
		opts:     opts,
		dir:      dir,
		walPath:  filepath.Join(dir, "wal.log"),
		c:        newCore(),
		seqWatch: make(chan struct{}),
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(d.walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	d.wal = f
	d.registerMetrics()
	d.opts.Obs.Gauge("quagmire_store_recovery_seconds", "phase", "replay").Set(time.Since(start).Seconds())
	p, v := d.c.counts()
	d.opts.logf("store: recovered %d policies (%d versions) from %s in %s", p, v, dir, time.Since(start).Round(time.Millisecond))
	return d, nil
}

// recover loads the indexed v2 snapshot, if any, and replays the WAL into
// the core. The snapshot installs metadata only — payload bytes stay on
// disk behind refs until LoadPayload asks for them, so boot cost is
// O(index), not O(corpus).
func (d *Disk) recover() error {
	sf, err := openSnapshotV2(filepath.Join(d.dir, snapshotV2Name))
	switch {
	case err == nil:
		for i := range sf.idx.Policies {
			sp := &sf.idx.Policies[i]
			ps := &policyState{Meta: sp.Meta, Versions: make([]Version, len(sp.Versions))}
			for j, sv := range sp.Versions {
				ps.Versions[j] = Version{
					VersionMeta: sv.VersionMeta,
					ref:         &payloadRef{off: sv.Off, n: sv.Len, crc: sv.CRC},
				}
			}
			d.c.policies[sp.Meta.ID] = ps
		}
		d.c.nextID = sf.hdr.NextID
		d.seq = sf.hdr.Seq
		d.snapSeq = sf.hdr.Seq
		d.snapFile = sf
	case errors.Is(err, fs.ErrNotExist):
		if err := checkNotLegacyV1(d.dir); err != nil {
			return err
		}
	default:
		return err
	}
	f, err := os.Open(d.walPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: open wal for replay: %w", err)
	}
	defer f.Close()
	// Records at or below the snapshot watermark are already in the
	// snapshot: a crash between snapshot save and WAL truncation leaves
	// them behind, and replaying them would duplicate creates and appends.
	var skipped int
	offset, records, corrupt, err := replayWAL(f, func(op walOp, off int64) error {
		d.walIndex = append(d.walIndex, walEntry{seq: op.Seq, off: off})
		if op.Seq <= d.seq {
			skipped++
			return nil
		}
		if aerr := d.applyOp(op); aerr != nil {
			return aerr
		}
		d.seq = op.Seq
		return nil
	})
	if err != nil {
		return err
	}
	d.walBytes = offset
	d.opts.Obs.Counter("quagmire_store_wal_replayed_records_total").Add(uint64(records - skipped))
	if skipped > 0 {
		d.opts.logf("store: skipped %d wal records already covered by the snapshot (interrupted compaction)", skipped)
		d.opts.Obs.Counter("quagmire_store_wal_skipped_records_total").Add(uint64(skipped))
	}
	if corrupt != nil {
		d.opts.logf("store: %v; truncating log to %d bytes (%d records kept)", corrupt, offset, records)
		d.opts.Obs.Counter("quagmire_store_wal_truncations_total").Inc()
		if err := truncateWAL(d.walPath, offset); err != nil {
			return err
		}
	}
	return nil
}

// checkNotLegacyV1 refuses a data directory whose only snapshot is the
// legacy v1 file. Without snapshot.v2 the store would otherwise open empty
// and silently lose every policy the v1 file holds. Callers run it only
// after finding no snapshot.v2, so a stale v1 file left beside v2 (a
// compaction that crashed before deleting it) never triggers it.
func checkNotLegacyV1(dir string) error {
	path := filepath.Join(dir, legacyV1Name)
	switch _, err := os.Stat(path); {
	case err == nil:
		return fmt.Errorf("store: %s is a legacy v1 snapshot, which this build no longer reads; "+
			"to rewrite it as %s, open the directory once with a build from commit d7110fa through 11eb374 "+
			"and shut it down cleanly (quagmired -data %s, then SIGTERM)", path, snapshotV2Name, dir)
	case errors.Is(err, fs.ErrNotExist):
		return nil
	default:
		return fmt.Errorf("store: %w", err)
	}
}

// applyOp applies one replayed record to the core, preserving the logged
// IDs and timestamps exactly.
func (d *Disk) applyOp(op walOp) error {
	switch op.Op {
	case "create":
		_, err := d.c.applyCreate(op.ID, op.Name, op.Version)
		return err
	case "append":
		// expect -1: the CAS was settled when the record was logged.
		_, err := d.c.applyAppend(op.ID, -1, op.Version)
		return err
	default:
		return fmt.Errorf("store: unknown wal op %q", op.Op)
	}
}

func (d *Disk) registerMetrics() {
	d.opts.Obs.GaugeFunc("quagmire_store_wal_bytes", func() float64 {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return float64(d.walBytes)
	})
	d.opts.Obs.GaugeFunc("quagmire_store_policies", func() float64 {
		d.mu.RLock()
		defer d.mu.RUnlock()
		p, _ := d.c.counts()
		return float64(p)
	})
	d.opts.Obs.GaugeFunc("quagmire_store_versions", func() float64 {
		d.mu.RLock()
		defer d.mu.RUnlock()
		_, v := d.c.counts()
		return float64(v)
	})
}

// log frames op, appends it to the WAL and syncs (unless NoSync). The
// caller holds d.mu.
func (d *Disk) log(op walOp) error {
	return d.logBatch([]walOp{op})
}

// logBatch frames every op with consecutive sequence numbers, appends
// them to the WAL and syncs once for the whole batch (unless NoSync) —
// the fsync amortization that makes AppendBatch cheap at corpus scale.
// The batch is atomic: a failed write or sync rolls the log back to the
// pre-batch boundary, so no prefix of an unacknowledged batch can
// survive into recovery. The caller holds d.mu.
func (d *Disk) logBatch(ops []walOp) error {
	if d.failed != nil {
		return fmt.Errorf("store: wal unusable, writes disabled: %w", d.failed)
	}
	var written int64
	var err error
	entries := make([]walEntry, len(ops))
	for i := range ops {
		ops[i].Seq = d.seq + uint64(i) + 1
		entries[i] = walEntry{seq: ops[i].Seq, off: d.walBytes + written}
		var n int
		n, err = appendWALRecord(d.wal, ops[i])
		if err != nil {
			break
		}
		written += int64(n)
	}
	if err == nil && !d.opts.NoSync {
		if err = d.wal.Sync(); err == nil {
			d.opts.Obs.Counter("quagmire_store_wal_syncs_total").Inc()
		}
	}
	if err != nil {
		d.lastErr = err
		// The failed batch may have left a torn frame (or complete but
		// unacknowledged records) past the last good boundary. Cut the file
		// back to that boundary so later appends stay parseable — the WAL
		// is opened O_APPEND, so the next write lands at the truncated end.
		// If the rollback itself fails the log now ends mid-frame, and any
		// record written after it would be discarded by recovery as a
		// corrupt tail; refuse all further writes instead.
		if rbErr := d.wal.Truncate(d.walBytes); rbErr != nil {
			d.failed = fmt.Errorf("append failed (%v) and rollback to offset %d failed: %w", err, d.walBytes, rbErr)
			d.opts.logf("store: %v; store is now read-only", d.failed)
		}
		return err
	}
	d.lastErr = nil
	d.seq += uint64(len(ops))
	d.walBytes += written
	d.walIndex = append(d.walIndex, entries...)
	// Wake WAL-tail watchers: the records are durable and applied-or-about-
	// to-be under the same lock hold, so a woken replication stream reads a
	// consistent tail.
	close(d.seqWatch)
	d.seqWatch = make(chan struct{})
	return nil
}

// maybeCompact snapshots and resets the WAL when it exceeds the
// threshold. The caller holds d.mu.
func (d *Disk) maybeCompact() {
	threshold := d.opts.SnapshotThreshold
	if threshold == 0 {
		threshold = defaultSnapshotThreshold
	}
	if threshold < 0 || d.walBytes < threshold {
		return
	}
	if err := d.compactLocked(); err != nil {
		// Compaction failure is not fatal — the WAL still holds the state —
		// but it degrades health until a write path succeeds again.
		d.lastErr = err
		d.opts.logf("store: snapshot compaction failed: %v", err)
	}
}

// compactLocked writes an indexed v2 snapshot atomically (fsynced, so it
// survives a host crash before the WAL it replaces is gone), re-points
// every in-memory version at the new file — dropping inline payload bytes
// held since WAL replay or live appends — and truncates the WAL. The
// snapshot carries the WAL sequence watermark, so a crash between the two
// steps is safe: recovery skips the already-snapshotted records. The
// caller holds d.mu.
func (d *Disk) compactLocked() error {
	defer d.opts.observe("snapshot", time.Now())
	if d.walBytes == 0 && d.snapFile != nil && d.snapSeq == d.seq {
		// The on-disk snapshot already matches the in-memory state (every
		// mutation bumps seq); rewriting it would be pure churn.
		return nil
	}
	hdr := snapHeader{Codec: snapshotCodecV2, Seq: d.seq, NextID: d.c.nextID}
	states := d.sortedStatesLocked()
	sf, idx, err := saveSnapshotV2(d.dir, hdr, states, d.loadPayloadLocked)
	if err != nil {
		return err
	}
	// Re-point every version at its section in the new file, then swap the
	// handles. Readers cannot race this: LoadPayload resolves refs under
	// the same lock compaction holds exclusively.
	for pi, st := range states {
		for vi := range st.Versions {
			sv := idx.Policies[pi].Versions[vi]
			st.Versions[vi].Payload = nil
			st.Versions[vi].ref = &payloadRef{off: sv.Off, n: sv.Len, crc: sv.CRC}
		}
	}
	if d.snapFile != nil {
		d.snapFile.Close()
	}
	d.snapFile = sf
	d.snapSeq = d.seq
	// The WAL is opened O_APPEND, so after the truncate the next write
	// lands at offset zero without an explicit seek.
	if err := d.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: reset wal after snapshot: %w", err)
	}
	d.walBytes = 0
	d.walIndex = d.walIndex[:0]
	// A legacy v1 snapshot left beside v2 is stale; drop it (best effort)
	// so the disk holds one copy.
	if err := os.Remove(filepath.Join(d.dir, legacyV1Name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		d.opts.logf("store: remove legacy snapshot: %v", err)
	}
	d.opts.Obs.Counter("quagmire_store_snapshots_total").Inc()
	return nil
}

func sortedIDs(m map[string]*policyState) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	// Reuse the core's canonical ordering for deterministic snapshots.
	tmp := &core{policies: m}
	ids = ids[:0]
	for _, p := range tmp.list() {
		ids = append(ids, p.ID)
	}
	return ids
}

// Create implements PolicyStore.
func (d *Disk) Create(name string, v Version) (Policy, error) {
	defer d.opts.observe("create", time.Now())
	v.Created = d.opts.clock()()
	v.Bytes = len(v.Payload)
	v.N = 1
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return Policy{}, ErrClosed
	}
	id := fmt.Sprintf("p%d", d.c.nextID+1)
	if name == "" {
		name = v.Company
	}
	if err := d.log(walOp{Op: "create", ID: id, Name: name, Version: v}); err != nil {
		return Policy{}, err
	}
	meta, err := d.c.applyCreate(id, name, v)
	if err != nil {
		return Policy{}, err
	}
	d.maybeCompact()
	return meta, nil
}

// AppendBatch implements PolicyStore: every entry becomes a new policy,
// logged as consecutive WAL records with a single fsync for the whole
// batch. Ingesting a corpus in batches of K pays N/K syncs instead of N.
func (d *Disk) AppendBatch(entries []BatchEntry) ([]Policy, error) {
	defer d.opts.observe("append_batch", time.Now())
	if len(entries) == 0 {
		return nil, nil
	}
	now := d.opts.clock()()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	ops := make([]walOp, len(entries))
	for i, e := range entries {
		v := e.Version
		v.Created = now
		v.Bytes = len(v.Payload)
		v.N = 1
		name := e.Name
		if name == "" {
			name = v.Company
		}
		ops[i] = walOp{Op: "create", ID: fmt.Sprintf("p%d", d.c.nextID+1+i), Name: name, Version: v}
	}
	if err := d.logBatch(ops); err != nil {
		return nil, err
	}
	out := make([]Policy, len(ops))
	for i, op := range ops {
		meta, err := d.c.applyCreate(op.ID, op.Name, op.Version)
		if err != nil {
			// Unreachable — the IDs were freshly assigned under the same
			// lock — but surfacing it beats silently diverging from the WAL.
			return out[:i], err
		}
		out[i] = meta
	}
	d.maybeCompact()
	return out, nil
}

// Append implements PolicyStore.
func (d *Disk) Append(id string, expect int, v Version) (Policy, error) {
	defer d.opts.observe("append", time.Now())
	if expect < 0 {
		return Policy{}, fmt.Errorf("store: negative expected version %d", expect)
	}
	v.Created = d.opts.clock()()
	v.Bytes = len(v.Payload)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return Policy{}, ErrClosed
	}
	// Settle the CAS before logging so a conflicting append never reaches
	// the WAL.
	st, ok := d.c.policies[id]
	if !ok {
		return Policy{}, fmt.Errorf("%w: policy %q", ErrNotFound, id)
	}
	if st.Meta.Versions != expect {
		return Policy{}, fmt.Errorf("%w: policy %q at version %d, expected %d",
			ErrConflict, id, st.Meta.Versions, expect)
	}
	v.N = expect + 1
	if err := d.log(walOp{Op: "append", ID: id, Version: v}); err != nil {
		return Policy{}, err
	}
	meta, err := d.c.applyAppend(id, expect, v)
	if err != nil {
		return Policy{}, err
	}
	d.maybeCompact()
	return meta, nil
}

// Get implements PolicyStore.
func (d *Disk) Get(id string) (Policy, error) {
	defer d.opts.observe("get", time.Now())
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.c.get(id)
}

// List implements PolicyStore.
func (d *Disk) List() ([]Policy, error) {
	defer d.opts.observe("list", time.Now())
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.c.list(), nil
}

// Versions implements PolicyStore.
func (d *Disk) Versions(id string) ([]VersionMeta, error) {
	defer d.opts.observe("versions", time.Now())
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.c.versions(id)
}

// Version implements PolicyStore: metadata only, Payload nil.
func (d *Disk) Version(id string, n int) (Version, error) {
	defer d.opts.observe("version", time.Now())
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, err := d.c.version(id, n)
	v.Payload, v.ref = nil, nil
	return v, err
}

// LoadPayload implements PolicyStore. Versions still WAL-resident are
// served from memory; snapshotted versions are read out of the indexed v2
// file and CRC-verified — which is where payload corruption surfaces, at
// first use rather than at open.
func (d *Disk) LoadPayload(id string, n int) ([]byte, error) {
	defer d.opts.observe("load_payload", time.Now())
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, err := d.c.version(id, n)
	if err != nil {
		return nil, err
	}
	b, err := d.loadPayloadLocked(id, &v)
	if err != nil {
		d.opts.Obs.Counter("quagmire_store_payload_load_failures_total").Inc()
		return nil, fmt.Errorf("store: load payload %s/v%d: %w", id, n, err)
	}
	return b, nil
}

// Health implements PolicyStore: counts plus a live disk-writability
// probe, degraded by any unresolved WAL write failure.
func (d *Disk) Health() Health {
	d.mu.RLock()
	p, v := d.c.counts()
	walBytes := d.walBytes
	lastErr := d.lastErr
	failed := d.failed
	closed := d.closed
	d.mu.RUnlock()
	h := Health{Backend: "disk", Policies: p, Versions: v, WALBytes: walBytes, Writable: true}
	switch {
	case closed:
		h.Writable, h.Detail = false, "store closed"
	case failed != nil:
		h.Writable, h.Detail = false, failed.Error()
	case lastErr != nil:
		h.Writable, h.Detail = false, lastErr.Error()
	default:
		if err := d.probe(); err != nil {
			h.Writable, h.Detail = false, err.Error()
		}
	}
	return h
}

// probe checks the directory is still writable by creating and removing a
// scratch file.
func (d *Disk) probe() error {
	p := filepath.Join(d.dir, ".probe")
	if err := os.WriteFile(p, []byte("ok"), 0o644); err != nil {
		return fmt.Errorf("store: disk probe: %w", err)
	}
	return os.Remove(p)
}

// Close snapshots the state (so the next open replays no log) and closes
// the WAL.
func (d *Disk) Close() error { return d.close(true) }

// CloseWithoutSnapshot closes the store without compacting it, so the next
// open replays the WAL, where every applied write already is. A follower
// closes its store this way before a snapshot from its primary replaces
// it: compacting first would write a full snapshot only to overwrite it.
func (d *Disk) CloseWithoutSnapshot() error { return d.close(false) }

func (d *Disk) close(snapshot bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	// Wake every WaitSeq parked on the tail so replication streams end
	// promptly instead of hanging on a closed store.
	close(d.seqWatch)
	d.seqWatch = make(chan struct{})
	var snapErr error
	if snapshot {
		snapErr = d.compactLocked()
	}
	closeErr := d.wal.Close()
	var sfErr error
	if d.snapFile != nil {
		sfErr = d.snapFile.Close()
		d.snapFile = nil
	}
	return errors.Join(snapErr, closeErr, sfErr)
}
