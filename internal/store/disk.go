package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// legacyV1Name names the monolithic JSON snapshot (codec 1) that builds
// before snapshot format v2 wrote. It is no longer read: a directory that
// holds only this file is refused with an upgrade path (see
// checkNotLegacyV1), and one that also holds snapshot.v2 keeps v2 as the
// authority while compaction deletes the stale file.
const legacyV1Name = "store-snapshot.json"

// The WAL is two files: the live log commits append to, and the retained
// generation, which is the live log as the last compaction rotated it out.
// Sequence numbers run on from the retained generation into the live log.
const (
	walName         = "wal.log"
	retainedWALName = "wal.prev.log"
)

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
//
// Compaction runs beside the writers (see compact): it holds d.mu only to
// rotate the live log and capture a cut, and to swap the new snapshot in.
// The rotated log stays on disk as the retained generation until the next
// rotation, so ReplayFrom serves a follower that lags by less than one
// compaction window.
type Disk struct {
	opts Options
	dir  string

	// snapMu admits one snapshot writer at a time: a compaction or a
	// SnapshotTo stream. Writers never take it, so no commit waits for a
	// snapshot's I/O. Lock order: snapMu, then mu.
	snapMu sync.Mutex
	// bg counts the running background compaction, so Close can wait for
	// it.
	bg sync.WaitGroup
	// stepHook, set only by tests while no compaction runs, is called
	// after each compaction step.
	stepHook func(compactStep)

	mu  sync.RWMutex
	c   *core
	wal walFile
	// live is wal.log, which wal appends to; retained is the generation
	// the last rotation moved out of it.
	live, retained walGen
	// floor is the lowest watermark ReplayFrom serves: the two logs hold
	// every record above it.
	floor uint64
	// seq is the sequence number of the last durable WAL record (or the
	// snapshot watermark right after recovery).
	seq uint64
	// seqWatch is closed and replaced whenever seq advances; WaitSeq parks
	// on it so WAL-tail streams long-poll instead of spinning. Close wakes
	// all waiters by closing the final channel.
	seqWatch chan struct{}
	// snapFile is the open v2 snapshot lazy payload loads ReadAt from;
	// nil when the store was booted without a snapshot.
	snapFile *snapshotFile
	// snapSeq is the watermark of the on-disk snapshot: it holds every
	// record at or below it.
	snapSeq uint64
	// compacting is set while a background compaction is scheduled or
	// running; no second one starts until it ends.
	compacting bool
	closed     bool
	// lastErr is the most recent WAL write or compaction failure; it
	// degrades Health until a subsequent write succeeds.
	lastErr error
	// failed is set when a torn WAL frame could not be rolled back; the
	// store then refuses all further writes (reads stay available) so no
	// acknowledged write can land beyond an unparseable tail.
	failed error
}

// walGen is one WAL file: its path, its durable size (bytes past it are a
// rolled-back or torn tail and were never acknowledged) and the index of
// its intact records in file order. Sequence numbers only grow through a
// file, so a tail finds its first record by binary search.
type walGen struct {
	path  string
	size  int64
	index []walEntry
}

// walEntry is one index entry: a record's sequence number and the byte
// offset of its frame in the file.
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
		live:     walGen{path: filepath.Join(dir, walName)},
		retained: walGen{path: filepath.Join(dir, retainedWALName)},
		c:        newCore(),
		seqWatch: make(chan struct{}),
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(d.live.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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

// HasState reports whether dir holds a store to resume from: a snapshot
// or either WAL file.
func HasState(dir string) bool {
	for _, name := range []string{snapshotV2Name, walName, retainedWALName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// recover loads the indexed v2 snapshot, if any, and replays the retained
// WAL generation and then the live log into the core. The snapshot
// installs metadata only — payload bytes stay on disk behind refs until
// LoadPayload asks for them, so boot cost is O(index), not O(corpus).
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
	var applied, skipped int
	for _, g := range []*walGen{&d.retained, &d.live} {
		a, s, err := d.replayGen(g)
		if err != nil {
			return err
		}
		applied, skipped = applied+a, skipped+s
	}
	d.resetFloorLocked()
	d.opts.Obs.Counter("quagmire_store_wal_replayed_records_total").Add(uint64(applied))
	if skipped > 0 {
		d.opts.logf("store: skipped %d wal records already covered by the snapshot", skipped)
		d.opts.Obs.Counter("quagmire_store_wal_skipped_records_total").Add(uint64(skipped))
	}
	return nil
}

// replayGen replays one WAL file into the core and indexes its records.
// Records at or below the watermark are already applied — the snapshot
// holds them, or the retained generation did — and are skipped rather
// than applied twice. A record that jumps past the next sequence number
// ends the usable log like a corrupt one: applying it would hide the
// records in between. A corrupt tail is truncated with a warning.
func (d *Disk) replayGen(g *walGen) (applied, skipped int, err error) {
	f, err := os.Open(g.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("store: open %s for replay: %w", filepath.Base(g.path), err)
	}
	defer f.Close()
	offset, records, corrupt, err := replayWAL(f, func(op walOp, off int64) error {
		if op.Seq > d.seq+1 {
			return &corruptTailError{off, fmt.Sprintf("sequence gap: record %d after %d", op.Seq, d.seq)}
		}
		g.index = append(g.index, walEntry{seq: op.Seq, off: off})
		if op.Seq <= d.seq {
			skipped++
			return nil
		}
		if aerr := d.applyOp(op); aerr != nil {
			return aerr
		}
		d.seq = op.Seq
		applied++
		return nil
	})
	if err != nil {
		return applied, skipped, err
	}
	g.size = offset
	if corrupt != nil {
		d.opts.logf("store: %v; truncating %s to %d bytes (%d records kept)", corrupt, filepath.Base(g.path), offset, records)
		d.opts.Obs.Counter("quagmire_store_wal_truncations_total").Inc()
		if err := truncateWAL(g.path, offset); err != nil {
			return applied, skipped, err
		}
	}
	return applied, skipped, nil
}

// resetFloorLocked recomputes floor from the indexes. Walking back from
// seq, the logs hold every record down to the first one they are missing.
// The caller holds d.mu.
func (d *Disk) resetFloorLocked() {
	floor := d.seq
	for _, g := range []*walGen{&d.live, &d.retained} {
		for i := len(g.index) - 1; i >= 0; i-- {
			if g.index[i].seq != floor {
				d.floor = floor
				return
			}
			floor--
		}
	}
	d.floor = floor
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
		return float64(d.walBytesLocked())
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

// walBytesLocked is the durable size of both WAL files. The caller holds
// d.mu.
func (d *Disk) walBytesLocked() int64 { return d.retained.size + d.live.size }

// log frames op, appends it to the WAL and syncs. The caller holds d.mu.
func (d *Disk) log(op walOp) error {
	return d.logBatch([]walOp{op})
}

// logBatch frames every op with consecutive sequence numbers, appends
// them to the WAL and syncs once for the whole batch — the fsync
// amortization that makes AppendBatch cheap at corpus scale. The batch is
// atomic: a failed write or sync rolls the log back to the pre-batch
// boundary, so no prefix of an unacknowledged batch can survive into
// recovery. The caller holds d.mu.
func (d *Disk) logBatch(ops []walOp) error {
	if d.failed != nil {
		return fmt.Errorf("store: wal unusable, writes disabled: %w", d.failed)
	}
	var written int64
	var err error
	entries := make([]walEntry, len(ops))
	for i := range ops {
		ops[i].Seq = d.seq + uint64(i) + 1
		entries[i] = walEntry{seq: ops[i].Seq, off: d.live.size + written}
		var n int
		n, err = appendWALRecord(d.wal, ops[i])
		if err != nil {
			break
		}
		written += int64(n)
	}
	if err == nil {
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
		if rbErr := d.wal.Truncate(d.live.size); rbErr != nil {
			d.failed = fmt.Errorf("append failed (%v) and rollback to offset %d failed: %w", err, d.live.size, rbErr)
			d.opts.logf("store: %v; store is now read-only", d.failed)
		}
		return err
	}
	d.lastErr = nil
	d.seq += uint64(len(ops))
	d.live.size += written
	d.live.index = append(d.live.index, entries...)
	// Wake WAL-tail watchers: the records are durable and applied-or-about-
	// to-be under the same lock hold, so a woken replication stream reads a
	// consistent tail.
	close(d.seqWatch)
	d.seqWatch = make(chan struct{})
	return nil
}

// maybeCompact starts a background compaction once the live log exceeds
// the threshold, unless one is already scheduled or running. The caller
// holds d.mu, so the writer that crosses the threshold only starts the
// goroutine.
func (d *Disk) maybeCompact() {
	threshold := d.opts.SnapshotThreshold
	if threshold == 0 {
		threshold = defaultSnapshotThreshold
	}
	if threshold < 0 || d.live.size < threshold || d.compacting {
		return
	}
	d.compacting = true
	d.bg.Add(1)
	go d.compactInBackground()
}

func (d *Disk) compactInBackground() {
	defer d.bg.Done()
	d.snapMu.Lock()
	err := d.compact(false)
	d.snapMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compacting = false
	if err != nil {
		// Compaction failure is not fatal — the logs still hold the state,
		// and the next compaction retries from a later cut — but it
		// degrades health until a write path succeeds again.
		d.lastErr = err
		d.opts.logf("store: snapshot compaction failed: %v", err)
	}
}

// compactStep names the points a compaction passes, in order.
type compactStep int

const (
	// stepRotated: wal.log renamed over the retained generation, a fresh
	// wal.log created and the directory synced.
	stepRotated compactStep = iota
	// stepWritten: the cut's snapshot written and synced under its temp
	// name.
	stepWritten
	// stepRenamed: the snapshot renamed into place and the directory
	// synced.
	stepRenamed
	// stepSwapped: the cut's versions re-pointed at the new snapshot.
	stepSwapped
	// stepDropped: what the snapshot makes redundant deleted. Close's
	// compaction deletes both logs; a background one only a stale legacy
	// v1 snapshot, since its rotation's rename already replaced the older
	// WAL generation.
	stepDropped
)

func (d *Disk) step(s compactStep) {
	if d.stepHook != nil {
		d.stepHook(s)
	}
}

// compact writes a snapshot in three phases, so writers wait only for the
// two short locked ones:
//
//  1. Under d.mu: rotate the live log into the retained generation and
//     capture the cut (seq, next ID, every policy's metadata and versions).
//     The rename replaces the older generation, so it runs only when the
//     on-disk snapshot covers that generation's last record; after a
//     failed compaction the logs stay as they are until a snapshot covers
//     them.
//  2. Without it: write the cut's snapshot and rename it into place.
//     Inline payloads are immutable; ref'd ones are read from the old
//     snapshot, which stays open (snapMu keeps any other snapshot writer
//     from swapping or closing it).
//  3. Under d.mu: re-point the cut's versions at the new file and swap it
//     in. Versions written after the cut stay inline.
//
// A final compaction (Close, after writes stopped) then deletes both
// logs: the new snapshot covers every record in them. A crash at any step
// loses nothing, since a WAL file is deleted only once a durable snapshot
// covers its last record. The caller holds d.snapMu.
func (d *Disk) compact(final bool) error {
	defer d.opts.observe("snapshot", time.Now())
	// A rotation's rename frees the older generation's blocks unless the
	// file is still open, and freeing them is journal work; hold it open
	// so the deferred close frees them outside the lock. Only rotations,
	// which snapMu serializes, touch this file.
	older, err := os.Open(d.retained.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: open retained wal: %w", err)
	}
	if older != nil {
		defer older.Close()
	}
	d.mu.Lock()
	if d.closed && !final {
		d.mu.Unlock()
		return nil // Close runs the final compaction itself
	}
	if d.snapFile != nil && d.snapSeq == d.seq {
		// The on-disk snapshot already holds the in-memory state (every
		// mutation bumps seq); rewriting it would be pure churn.
		var err error
		if final {
			err = d.dropLogsLocked()
		}
		d.mu.Unlock()
		return err
	}
	rotated := false
	if d.failed == nil && d.live.size > 0 && d.retainedCoveredLocked() {
		if err := d.rotateLocked(); err != nil {
			d.mu.Unlock()
			return err
		}
		rotated = true
	}
	c := d.cutLocked()
	d.mu.Unlock()
	if rotated {
		d.step(stepRotated)
	}

	sortByID(c.policies, func(st *policyState) string { return st.Meta.ID })
	sf, idx, err := saveSnapshotV2(d.dir, c.hdr, c.policies, c.load, func() { d.step(stepWritten) })
	if err != nil {
		return err
	}
	d.step(stepRenamed)

	d.mu.Lock()
	old := d.swapLocked(c, sf, idx)
	d.mu.Unlock()
	// The new snapshot was renamed over the old one, so this last close
	// frees its blocks: journal work kept out of the lock.
	if old != nil {
		old.Close()
	}
	d.step(stepSwapped)
	if final {
		d.mu.Lock()
		err = d.dropLogsLocked()
		d.mu.Unlock()
	}
	// A legacy v1 snapshot left beside v2 is stale; drop it (best effort)
	// so the disk holds one copy.
	if rerr := os.Remove(filepath.Join(d.dir, legacyV1Name)); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
		d.opts.logf("store: remove legacy snapshot: %v", rerr)
	}
	d.opts.Obs.Counter("quagmire_store_snapshots_total").Inc()
	d.step(stepDropped)
	return err
}

// retainedCoveredLocked reports whether the on-disk snapshot holds every
// record of the retained generation, so a rotation may replace it. The
// caller holds d.mu.
func (d *Disk) retainedCoveredLocked() bool {
	n := len(d.retained.index)
	return n == 0 || d.retained.index[n-1].seq <= d.snapSeq
}

// rotateLocked renames wal.log over the retained generation and starts an
// empty wal.log. The directory is synced before the caller releases d.mu,
// so no record lands in the new log before its directory entry is
// durable. The caller holds d.mu and has checked retainedCoveredLocked.
func (d *Disk) rotateLocked() error {
	if err := os.Rename(d.live.path, d.retained.path); err != nil {
		return fmt.Errorf("store: rotate wal: %w", err)
	}
	f, err := os.OpenFile(d.live.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if err = syncDir(d.dir); err != nil {
			f.Close()
		}
	}
	if err != nil {
		// Give the live log its name back; the open handle still appends
		// to it. Failing that, every record is in the retained file, which
		// recovery reads, but the handle no longer writes to wal.log.
		if rerr := os.Rename(d.retained.path, d.live.path); rerr != nil {
			d.failed = fmt.Errorf("wal rotation failed (%v) and restoring %s failed: %w", err, walName, rerr)
			d.opts.logf("store: %v; store is now read-only", d.failed)
			d.retained = walGen{path: d.retained.path, size: d.live.size, index: d.live.index}
			d.live = walGen{path: d.live.path}
		} else {
			d.retained = walGen{path: d.retained.path}
		}
		d.resetFloorLocked()
		return fmt.Errorf("store: rotate wal: %w", err)
	}
	old := d.wal
	d.wal = f
	d.retained = walGen{path: d.retained.path, size: d.live.size, index: d.live.index}
	d.live = walGen{path: d.live.path}
	d.resetFloorLocked()
	if err := old.Close(); err != nil {
		d.opts.logf("store: close rotated wal: %v", err)
	}
	return nil
}

// snapCut is a snapshot's view of the store at one sequence number: the
// header, each policy's metadata and versions up to the cut, and the
// snapshot file their refs point into.
type snapCut struct {
	hdr      snapHeader
	policies []*policyState
	src      *snapshotFile
	// buf receives each ref'd payload in turn: writeSnapshotV2 is done
	// with one payload before it loads the next.
	buf []byte
}

// cutLocked captures the store at d.seq. The version slices are copied, so
// later appends and swaps never touch the cut; payload bytes are shared,
// being immutable. The caller holds d.mu.
func (d *Disk) cutLocked() *snapCut {
	c := &snapCut{
		hdr:      snapHeader{Codec: snapshotCodecV2, Seq: d.seq, NextID: d.c.nextID},
		policies: make([]*policyState, 0, len(d.c.policies)),
		src:      d.snapFile,
	}
	for _, st := range d.c.policies {
		c.policies = append(c.policies, &policyState{Meta: st.Meta, Versions: slices.Clone(st.Versions)})
	}
	return c
}

// load materializes one of the cut's payloads. A ref'd payload is read
// into c.buf, so it is valid only until the next call.
func (c *snapCut) load(id string, v *Version) ([]byte, error) {
	if v.Payload != nil || v.ref == nil {
		return v.Payload, nil
	}
	if uint32(cap(c.buf)) < v.ref.n {
		c.buf = make([]byte, v.ref.n)
	}
	return loadPayload(c.src, id, v, c.buf[:v.ref.n])
}

// swapLocked re-points the cut's versions at their sections in sf, which
// drops the inline payload bytes they held since WAL replay or a live
// write, makes sf the store's snapshot and returns the one it replaces,
// for the caller to close. Readers cannot race it: LoadPayload resolves
// refs under the read lock. The caller holds d.mu (write) and d.snapMu.
func (d *Disk) swapLocked(c *snapCut, sf *snapshotFile, idx snapIndex) (old *snapshotFile) {
	for pi, cp := range c.policies {
		st := d.c.policies[cp.Meta.ID]
		for vi := range cp.Versions {
			sv := idx.Policies[pi].Versions[vi]
			st.Versions[vi].Payload = nil
			st.Versions[vi].ref = &payloadRef{off: sv.Off, n: sv.Len, crc: sv.CRC}
		}
	}
	old, d.snapFile = d.snapFile, sf
	d.snapSeq = c.hdr.Seq
	return old
}

// dropLogsLocked deletes the retained generation and empties the live
// log. Only Close's compaction runs it: writes have stopped, and the
// snapshot just saved covers every record. The caller holds d.mu.
func (d *Disk) dropLogsLocked() error {
	if err := os.Remove(d.retained.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: remove retained wal: %w", err)
	}
	d.retained = walGen{path: d.retained.path}
	// The WAL is opened O_APPEND, so after the truncate the next write
	// lands at offset zero without an explicit seek.
	if err := d.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: reset wal after snapshot: %w", err)
	}
	d.live = walGen{path: d.live.path}
	d.resetFloorLocked()
	return nil
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
	b, err := loadPayload(d.snapFile, id, &v, nil)
	if err != nil {
		d.opts.Obs.Counter("quagmire_store_payload_load_failures_total").Inc()
		return nil, fmt.Errorf("store: load payload %s/v%d: %w", id, n, err)
	}
	return b, nil
}

// loadPayload materializes one version's payload bytes: inline for
// WAL-resident versions, a CRC-verified read from sf for ref'd ones, into
// buf (exactly the section's size) or, when buf is nil, a new slice.
func loadPayload(sf *snapshotFile, id string, v *Version, buf []byte) ([]byte, error) {
	if v.Payload != nil || v.ref == nil {
		return v.Payload, nil
	}
	if sf == nil {
		return nil, fmt.Errorf("store: payload %s/v%d referenced but no snapshot open", id, v.N)
	}
	if buf == nil {
		buf = make([]byte, v.ref.n)
	}
	return sf.load(buf, *v.ref)
}

// Health implements PolicyStore: counts plus a live disk-writability
// probe, degraded by any unresolved WAL write failure.
func (d *Disk) Health() Health {
	d.mu.RLock()
	p, v := d.c.counts()
	walBytes := d.walBytesLocked()
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

// Close snapshots the state (so the next open replays no log), leaving
// one snapshot and an empty wal.log, and closes the WAL.
func (d *Disk) Close() error { return d.close(true) }

// CloseWithoutSnapshot closes the store without compacting it, so the next
// open replays the WAL files, where every applied write already is. A
// follower closes its store this way before a snapshot from its primary
// replaces it: compacting first would write a full snapshot only to
// overwrite it.
func (d *Disk) CloseWithoutSnapshot() error { return d.close(false) }

func (d *Disk) close(snapshot bool) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	// Wake every WaitSeq parked on the tail so replication streams end
	// promptly instead of hanging on a closed store.
	close(d.seqWatch)
	d.seqWatch = make(chan struct{})
	d.mu.Unlock()
	// Writes fail from here on. A background compaction that has not cut
	// yet returns at once; one past its cut finishes first.
	d.bg.Wait()
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	var snapErr error
	if snapshot {
		snapErr = d.compact(true)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	closeErr := d.wal.Close()
	var sfErr error
	if d.snapFile != nil {
		sfErr = d.snapFile.Close()
		d.snapFile = nil
	}
	return errors.Join(snapErr, closeErr, sfErr)
}
