package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Replication hooks: the v2 snapshot plus the seq-watermarked WAL tail
// together form a state-shipping primitive. A follower bootstraps from
// SnapshotTo (an indexed snapshot it can open directly), then catches up
// and stays current by polling ReplayFrom with its last-applied sequence
// number. ErrCompacted tells a follower it fell behind the primary's tail
// floor (more than one compaction window) and must re-bootstrap from a
// fresh snapshot.

// ErrCompacted reports that the requested replay window starts below the
// tail floor: those records were compacted away, and the caller must
// bootstrap from a snapshot instead.
var ErrCompacted = errors.New("store: records compacted away")

// ErrReplicationGap reports a replicated record whose sequence number does
// not extend the follower's durable state by exactly one: applying it
// would silently skip acknowledged primary writes, so the follower must
// resync (re-tail from its watermark, or re-bootstrap) instead.
var ErrReplicationGap = errors.New("store: replication gap")

// Replicator is the primary-side replication surface a PolicyStore may
// offer: a seq-watermarked snapshot stream for follower bootstrap, ordered
// WAL-tail replay for catch-up, and a blocking watch for tailing. The disk
// backend implements it; the HTTP layer exposes it under /v1/replicate
// whenever the serving store does.
type Replicator interface {
	SnapshotTo(w io.Writer, started func(seq uint64)) (uint64, error)
	ReplayFrom(seq uint64, fn func(Record) error) error
	WaitSeq(ctx context.Context, after uint64) (uint64, error)
	Seq() uint64
}

// Record is one seq-numbered store mutation — the unit of both WAL
// framing and replication shipping.
type Record struct {
	// Seq is the mutation's store-wide sequence number, strictly
	// increasing across compactions. The snapshot records the sequence it
	// was taken at, so replay can skip records the snapshot already
	// contains — which is what lets the retained WAL generation outlive
	// the compaction that covers it, and makes an interrupted compaction
	// recoverable instead of a replay of duplicate creates and appends.
	Seq uint64 `json:"seq"`
	// Op is "create" or "append".
	Op string `json:"op"`
	// ID is the policy the mutation applies to (the assigned ID for
	// creates, so replay reproduces it exactly).
	ID string `json:"id"`
	// Name is the policy name (creates only).
	Name string `json:"name,omitempty"`
	// Version is the stored version, timestamps and payload included.
	Version Version `json:"version"`
}

// SnapshotTo streams an indexed v2 snapshot of the store's current state
// to w and returns the sequence watermark it was taken at. The stream is
// byte-compatible with the on-disk snapshot.v2 file, so a follower can
// write it to its own data directory and OpenDisk from it. started, when
// non-nil, is invoked with the watermark before the first byte is written
// — the HTTP handler uses it to emit the watermark as a response header,
// which must precede the body.
//
// The stream is a cut taken under a brief read lock and written without
// it, so reads and writes proceed while a follower downloads. It holds
// d.snapMu for the duration: a compaction waits for the stream to end
// rather than close the snapshot file its payloads are read from.
func (d *Disk) SnapshotTo(w io.Writer, started func(seq uint64)) (uint64, error) {
	defer d.opts.observe("snapshot_to", time.Now())
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return 0, ErrClosed
	}
	c := d.cutLocked()
	d.mu.RUnlock()
	if started != nil {
		started(c.hdr.Seq)
	}
	sortByID(c.policies, func(st *policyState) string { return st.Meta.ID })
	if _, err := writeSnapshotV2(w, c.hdr, c.policies, c.load); err != nil {
		return 0, err
	}
	return c.hdr.Seq, nil
}

// ReplayFrom invokes fn for every durable WAL record with sequence number
// strictly greater than seq, in order, reading the retained generation
// and then the live log. It returns ErrCompacted when seq is below the
// tail floor — the records are gone and the caller must bootstrap via
// SnapshotTo. The retained generation keeps the floor at or below the
// previous snapshot's watermark, so a caller that lags by less than one
// compaction window keeps tailing. A fn error aborts the replay.
//
// The WAL indexes locate the first record past seq, so a replay reads and
// decodes only the records it yields, not the whole log, and a caught-up
// caller costs no file I/O at all.
func (d *Disk) ReplayFrom(seq uint64, fn func(Record) error) error {
	defer d.opts.observe("replay_from", time.Now())
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	if seq < d.floor {
		return fmt.Errorf("%w: requested replay from seq %d, the wal holds records after seq %d only", ErrCompacted, seq, d.floor)
	}
	if err := d.retained.tail(seq, fn); err != nil {
		return err
	}
	return d.live.tail(seq, fn)
}

// tail invokes fn for every record in g with sequence number above seq.
// The caller holds d.mu (read or write).
func (g *walGen) tail(seq uint64, fn func(Record) error) error {
	i := sort.Search(len(g.index), func(i int) bool { return g.index[i].seq > seq })
	if i == len(g.index) {
		return nil
	}
	start := g.index[i].off
	f, err := os.Open(g.path)
	if err != nil {
		return fmt.Errorf("store: open %s for replay: %w", filepath.Base(g.path), err)
	}
	defer f.Close()
	// Limit the read to the durable boundary: bytes past g.size are a
	// rolled-back or torn tail and were never acknowledged.
	_, _, corrupt, err := replayWAL(io.NewSectionReader(f, start, g.size-start), func(op Record, _ int64) error {
		if op.Seq <= seq {
			return nil
		}
		return fn(op)
	})
	if err != nil {
		return err
	}
	if corrupt != nil {
		corrupt.offset += start
		return fmt.Errorf("store: %s corrupt inside durable boundary: %w", filepath.Base(g.path), corrupt)
	}
	return nil
}

// Seq returns the sequence number of the last durable mutation — the
// store's replication watermark. On a follower this is the applied
// watermark: recovery rebuilds it from the snapshot header plus WAL
// replay, so it survives crashes without any separate watermark file.
func (d *Disk) Seq() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.seq
}

// WaitSeq blocks until the store's sequence number exceeds after, the
// context is done, or the store closes, and returns the current sequence
// number. It is the long-poll primitive behind the WAL-tail endpoint: a
// caught-up follower's stream parks here instead of spinning on replays.
func (d *Disk) WaitSeq(ctx context.Context, after uint64) (uint64, error) {
	for {
		d.mu.RLock()
		seq, ch, closed := d.seq, d.seqWatch, d.closed
		d.mu.RUnlock()
		switch {
		case closed:
			return seq, ErrClosed
		case seq > after:
			return seq, nil
		}
		select {
		case <-ctx.Done():
			return seq, ctx.Err()
		case <-ch:
		}
	}
}

// ApplyRecord applies one replicated primary record to a follower store:
// the record is logged to the follower's own WAL with the primary's
// sequence number preserved (log-before-apply, same as local writes), then
// applied through the shared state machine. Preserving primary seqs is
// what makes the applied watermark durable for free — recovery computes it
// the same way it computes the local one — and makes follower state
// byte-comparable to the primary's.
//
// Delivery is at-least-once: a record at or below the current watermark is
// a duplicate from a reconnect replay and is skipped. A record that skips
// ahead fails with ErrReplicationGap — applying it would hide acknowledged
// primary writes — and the caller must resync.
func (d *Disk) ApplyRecord(rec Record) error {
	defer d.opts.observe("apply_record", time.Now())
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if rec.Seq <= d.seq {
		return nil // duplicate delivery after a reconnect
	}
	if rec.Seq != d.seq+1 {
		return fmt.Errorf("%w: follower at seq %d, record is %d", ErrReplicationGap, d.seq, rec.Seq)
	}
	// logBatch assigns d.seq+1 to a single-record batch — exactly rec.Seq,
	// validated above — so the primary's numbering is preserved verbatim.
	if err := d.logBatch([]walOp{rec}); err != nil {
		return err
	}
	if err := d.applyOp(rec); err != nil {
		return err
	}
	d.maybeCompact()
	return nil
}

// InstallSnapshot writes a snapshot stream (as produced by SnapshotTo)
// into dir as its indexed v2 snapshot and returns the stream's watermark.
// The bytes are staged to a temp file, validated end to end (magic,
// header, index, every CRC boundary), fsynced, and renamed into place —
// a truncated or corrupted transfer can never replace a good snapshot.
// Both WAL files are removed first, the live log before the retained
// generation: a follower only installs a snapshot when its local state is
// being superseded wholesale (first bootstrap, falling behind the
// primary's tail floor, or running ahead of a fresh primary), and in the
// last case its WAL holds records above the new watermark that replay
// must never apply over the new snapshot. A crash between the steps
// leaves the old snapshot and a prefix of its log: an older but
// consistent state the follower catches up from.
//
// The target store must be closed; reopen it with OpenDisk afterwards.
func InstallSnapshot(dir string, r io.Reader) (uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("store: install snapshot: %w", err)
	}
	path := filepath.Join(dir, snapshotV2Name)
	tmp := path + ".bootstrap"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: install snapshot: %w", err)
	}
	_, werr := io.Copy(f, r)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: install snapshot: %w", werr)
	}
	sf, err := openSnapshotV2(tmp)
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: install snapshot: validate: %w", err)
	}
	seq := sf.hdr.Seq
	if cerr := sf.Close(); cerr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: install snapshot: %w", cerr)
	}
	for _, name := range []string{walName, retainedWALName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			os.Remove(tmp)
			return 0, fmt.Errorf("store: install snapshot: remove stale wal: %w", err)
		}
	}
	if err := syncDir(dir); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: install snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return seq, nil
}
