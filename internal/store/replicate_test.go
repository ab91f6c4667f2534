package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// shipRecords replays every primary record past the follower's watermark
// straight into the follower — the in-process skeleton of the replication
// loop, with no HTTP in between.
func shipRecords(t *testing.T, primary, follower *Disk) {
	t.Helper()
	err := primary.ReplayFrom(follower.Seq(), func(rec Record) error {
		return follower.ApplyRecord(rec)
	})
	if err != nil {
		t.Fatalf("ship records: %v", err)
	}
}

func TestApplyRecordReplicatesStateByteIdentically(t *testing.T) {
	pri, err := OpenDisk(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	fol, err := OpenDisk(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	p, err := pri.Create("pol", mkVersion("Acme", "v1-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pri.Append(p.ID, 1, mkVersion("Acme Corp", "v2-payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := pri.Create("other", mkVersion("Bmax", "b1")); err != nil {
		t.Fatal(err)
	}
	shipRecords(t, pri, fol)
	if got, want := dumpState(t, fol), dumpState(t, pri); got != want {
		t.Errorf("replicated state differs:\nfollower: %s\nprimary:  %s", got, want)
	}
	if fol.Seq() != pri.Seq() {
		t.Errorf("follower seq = %d, want %d", fol.Seq(), pri.Seq())
	}

	// At-least-once: re-shipping everything is a silent no-op.
	before := dumpState(t, fol)
	err = pri.ReplayFrom(0, func(rec Record) error { return fol.ApplyRecord(rec) })
	if err != nil {
		t.Fatalf("duplicate ship: %v", err)
	}
	if dumpState(t, fol) != before {
		t.Error("duplicate delivery changed follower state")
	}

	// A gap is refused loudly, not papered over.
	err = fol.ApplyRecord(Record{Seq: fol.Seq() + 2, Op: "create", ID: "p9", Name: "gap", Version: mkVersion("Gap", "g")})
	if !errors.Is(err, ErrReplicationGap) {
		t.Errorf("gap apply error = %v, want ErrReplicationGap", err)
	}
}

func TestApplyRecordWatermarkSurvivesCrash(t *testing.T) {
	pri, err := OpenDisk(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	fdir := t.TempDir()
	fol, err := OpenDisk(fdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pri.Create("pol", mkVersion("Acme", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pri.Append(p.ID, 1, mkVersion("Acme", "v2")); err != nil {
		t.Fatal(err)
	}
	shipRecords(t, pri, fol)
	want := fol.Seq()

	// No Close: the follower process "dies" and a new one must recover the
	// applied watermark from snapshot header + WAL replay alone.
	fol2 := reopen(t, fdir, Options{})
	if fol2.Seq() != want {
		t.Errorf("recovered watermark = %d, want %d", fol2.Seq(), want)
	}
	if dumpState(t, fol2) != dumpState(t, pri) {
		t.Error("recovered follower state differs from primary")
	}
}

func TestInstallSnapshotBootstrapsFollower(t *testing.T) {
	pri, err := OpenDisk(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	p, err := pri.Create("pol", mkVersion("Acme", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pri.Append(p.ID, 1, mkVersion("Acme", "v2")); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	var headerSeq uint64
	seq, err := pri.SnapshotTo(&buf, func(s uint64) { headerSeq = s })
	if err != nil {
		t.Fatal(err)
	}
	if headerSeq != seq {
		t.Errorf("started callback saw seq %d, SnapshotTo returned %d", headerSeq, seq)
	}

	fdir := t.TempDir()
	installed, err := InstallSnapshot(fdir, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if installed != seq {
		t.Errorf("InstallSnapshot seq = %d, want %d", installed, seq)
	}
	fol := reopen(t, fdir, Options{})
	if fol.Seq() != seq {
		t.Errorf("bootstrapped watermark = %d, want %d", fol.Seq(), seq)
	}
	if dumpState(t, fol) != dumpState(t, pri) {
		t.Error("bootstrapped state differs from primary")
	}

	// A truncated transfer must never install.
	buf.Reset()
	if _, err := pri.SnapshotTo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := InstallSnapshot(t.TempDir(), bytes.NewReader(truncated)); err == nil {
		t.Error("truncated snapshot installed without error")
	}
}

// TestInstallSnapshotDropsBothWALFiles: a follower that ran ahead of a
// fresh primary holds records above the new snapshot's watermark in both
// WAL files. Installing the snapshot removes both, so recovery replays
// none of them over it.
func TestInstallSnapshotDropsBothWALFiles(t *testing.T) {
	fdir := t.TempDir()
	fol, err := OpenDisk(fdir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.AppendBatch(mkBatch(3, "ahead")); err != nil {
		t.Fatal(err)
	}
	fol.mu.Lock()
	err = fol.rotateLocked()
	fol.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.AppendBatch(mkBatch(2, "ahead-live")); err != nil {
		t.Fatal(err)
	}
	if err := fol.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n := walFiles(t, fdir); len(n) != 2 {
		t.Fatalf("follower WAL files %v, want both", n)
	}
	pri, err := OpenDisk(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()
	if _, err := pri.Create("fresh", mkVersion("Fresh", "f1")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pri.SnapshotTo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if seq, err := InstallSnapshot(fdir, &buf); err != nil || seq != 1 {
		t.Fatalf("install = %d, %v; want seq 1", seq, err)
	}
	if n := walFiles(t, fdir); len(n) != 0 {
		t.Errorf("WAL files %v left beside the installed snapshot", n)
	}
	r := reopen(t, fdir, Options{})
	if r.Seq() != 1 || dumpState(t, r) != dumpState(t, pri) {
		t.Errorf("reopened follower at seq %d differs from the primary's snapshot", r.Seq())
	}
}

// TestSnapshotReplayUnderConcurrentWrites pins the replication read
// surface against live writers (run under -race): SnapshotTo must stream
// a consistent, installable snapshot whose header watermark is exact,
// ReplayFrom must never yield torn or out-of-order records, and the
// watermark must be monotonic throughout. Finally, snapshot + tail replay
// must reconstruct the primary byte-identically.
func TestSnapshotReplayUnderConcurrentWrites(t *testing.T) {
	pri, err := OpenDisk(t.TempDir(), Options{SnapshotThreshold: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer pri.Close()

	const writers, opsPerWriter = 4, 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []string
			for i := 0; i < opsPerWriter; i++ {
				if len(mine) == 0 || i%3 == 0 {
					p, err := pri.Create(fmt.Sprintf("w%d-%d", w, i), mkVersion("Acme", fmt.Sprintf("payload-%d-%d", w, i)))
					if err != nil {
						t.Errorf("create: %v", err)
						return
					}
					mine = append(mine, p.ID)
				} else {
					id := mine[i%len(mine)]
					vs, err := pri.Versions(id)
					if err != nil {
						t.Errorf("versions: %v", err)
						return
					}
					if _, err := pri.Append(id, len(vs), mkVersion("Acme", fmt.Sprintf("v-%d-%d", w, i))); err != nil && !errors.Is(err, ErrConflict) {
						t.Errorf("append: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Watermark monotonicity watcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := pri.Seq(); s < last {
				t.Errorf("watermark went backwards: %d after %d", s, last)
				return
			} else {
				last = s
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Concurrent snapshot stream: every snapshot taken mid-write-storm must
	// install cleanly and carry its exact watermark, and successive
	// watermarks must not regress.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastSeq uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			seq, err := pri.SnapshotTo(&buf, nil)
			if err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
			if seq < lastSeq {
				t.Errorf("snapshot watermark regressed: %d after %d", seq, lastSeq)
				return
			}
			lastSeq = seq
			installed, err := InstallSnapshot(t.TempDir(), &buf)
			if err != nil {
				t.Errorf("snapshot %d failed validation: %v", i, err)
				return
			}
			if installed != seq {
				t.Errorf("snapshot %d header seq %d, SnapshotTo said %d", i, installed, seq)
				return
			}
		}
	}()

	// Concurrent tail replay: records past any watermark arrive strictly
	// consecutive — never torn, duplicated, or reordered.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			from := pri.Seq()
			prev := from
			err := pri.ReplayFrom(from, func(rec Record) error {
				if rec.Seq != prev+1 {
					return fmt.Errorf("replay gap: %d after %d", rec.Seq, prev)
				}
				prev = rec.Seq
				if rec.Op != "create" && rec.Op != "append" {
					return fmt.Errorf("torn record op %q at seq %d", rec.Op, rec.Seq)
				}
				return nil
			})
			if err != nil && !errors.Is(err, ErrCompacted) {
				t.Errorf("replay: %v", err)
				return
			}
		}
	}()

	// WaitSeq under load: every return must exceed the waited-for seq.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for {
			select {
			case <-stop:
				return
			default:
			}
			after := pri.Seq()
			seq, err := pri.WaitSeq(ctx, after)
			if err != nil {
				return // test shutting down
			}
			if seq <= after {
				t.Errorf("WaitSeq(%d) returned %d", after, seq)
				return
			}
		}
	}()

	// Wait for the writers, then release the readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for pri.Seq() < writers*opsPerWriter-writers { // appends can lose CAS races
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-writersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("writers did not finish")
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	// Nudge the WaitSeq watcher awake with one more write.
	if _, err := pri.Create("final", mkVersion("Acme", "fin")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("readers did not stop")
	}

	// Differential finish: snapshot + tail replay rebuilds the primary
	// byte-identically.
	var buf bytes.Buffer
	seq, err := pri.SnapshotTo(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	if _, err := InstallSnapshot(fdir, &buf); err != nil {
		t.Fatal(err)
	}
	fol := reopen(t, fdir, Options{})
	if fol.Seq() != seq {
		t.Fatalf("bootstrap watermark = %d, want %d", fol.Seq(), seq)
	}
	shipRecords(t, pri, fol)
	if got, want := dumpState(t, fol), dumpState(t, pri); got != want {
		t.Error("snapshot+replay reconstruction differs from primary")
	}
}

// TestReplayFromBelowSnapshotWatermarkIsCompacted: the retained WAL
// generation keeps one compaction window servable, so a watermark is
// refused only once two compactions have passed it.
func TestReplayFromBelowSnapshotWatermarkIsCompacted(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), Options{SnapshotThreshold: 1}) // every write compacts
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Create("a", mkVersion("Acme", "1")); err != nil {
		t.Fatal(err)
	}
	settle(d)
	if _, err := d.Create("b", mkVersion("Bmax", "2")); err != nil {
		t.Fatal(err)
	}
	settle(d)
	err = d.ReplayFrom(0, func(Record) error { return nil })
	if !errors.Is(err, ErrCompacted) {
		t.Errorf("replay below watermark = %v, want ErrCompacted", err)
	}
	// One compaction back is inside the retained generation.
	if recs, err := tailFrom(d, 1); err != nil || len(recs) != 1 || recs[0].Seq != 2 {
		t.Errorf("replay from the previous snapshot's watermark = %d records, %v; want record 2", len(recs), err)
	}
	// Replaying from the current watermark is always legal.
	if err := d.ReplayFrom(d.Seq(), func(Record) error { return nil }); err != nil {
		t.Errorf("replay from watermark: %v", err)
	}
}

func TestWaitSeqWakesOnWriteAndClose(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64, 1)
	go func() {
		seq, err := d.WaitSeq(context.Background(), 0)
		if err != nil {
			t.Errorf("WaitSeq: %v", err)
		}
		got <- seq
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter park
	if _, err := d.Create("a", mkVersion("Acme", "1")); err != nil {
		t.Fatal(err)
	}
	select {
	case seq := <-got:
		if seq != 1 {
			t.Errorf("woke at seq %d, want 1", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitSeq never woke on write")
	}

	closed := make(chan error, 1)
	go func() {
		_, err := d.WaitSeq(context.Background(), 99)
		closed <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-closed:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("WaitSeq after close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitSeq never woke on close")
	}
}
