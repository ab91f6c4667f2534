package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scanWAL is the reference reader: it decodes the retained generation and
// then the live log, each from its first byte up to its durable boundary,
// and returns every record with the offset of its frame in its file.
func scanWAL(t *testing.T, d *Disk) (recs []Record, retained, live []walEntry) {
	t.Helper()
	d.mu.RLock()
	gens := []walGen{d.retained, d.live}
	d.mu.RUnlock()
	entries := [2][]walEntry{}
	for i, g := range gens {
		data, err := os.ReadFile(g.path)
		if errors.Is(err, fs.ErrNotExist) && g.size == 0 {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		_, _, corrupt, err := replayWAL(bytes.NewReader(data[:g.size]), func(op Record, off int64) error {
			recs = append(recs, op)
			entries[i] = append(entries[i], walEntry{seq: op.Seq, off: off})
			return nil
		})
		if err != nil || corrupt != nil {
			t.Fatalf("reference scan of %s: %v %v", g.path, err, corrupt)
		}
	}
	return recs, entries[0], entries[1]
}

func tailFrom(d *Disk, seq uint64) ([]Record, error) {
	var out []Record
	err := d.ReplayFrom(seq, func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}

func renderRecords(t *testing.T, recs []Record) string {
	t.Helper()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertTailsMatchScan checks that the indexes hold exactly the intact
// records of each file's durable prefix; that the tail floor is the
// reference scan's (the lowest watermark above which the two files hold
// every record) and no higher than the snapshot watermark, so the logs
// hold every record the snapshot does not; that ReplayFrom matches the
// reference scan filtered to Seq > seq for every watermark from the floor
// to one past the store's seq; and that a watermark below the floor is
// refused as compacted.
func assertTailsMatchScan(t *testing.T, d *Disk, phase string) {
	t.Helper()
	recs, retained, live := scanWAL(t, d)
	d.mu.RLock()
	snapSeq, floor := d.snapSeq, d.floor
	index := fmt.Sprint(d.retained.index, d.live.index)
	d.mu.RUnlock()
	if want := fmt.Sprint(retained, live); index != want {
		t.Fatalf("%s: index %s, want %s", phase, index, want)
	}
	want := d.Seq()
	for i := len(recs) - 1; i >= 0 && recs[i].Seq == want; i-- {
		want--
	}
	if floor != want {
		t.Fatalf("%s: tail floor %d, want %d", phase, floor, want)
	}
	if floor > snapSeq {
		t.Fatalf("%s: tail floor %d above the snapshot watermark %d", phase, floor, snapSeq)
	}
	for seq := floor; seq <= d.Seq()+1; seq++ {
		got, err := tailFrom(d, seq)
		if err != nil {
			t.Fatalf("%s: ReplayFrom(%d): %v", phase, seq, err)
		}
		var want []Record
		for _, rec := range recs {
			if rec.Seq > seq {
				want = append(want, rec)
			}
		}
		if g, w := renderRecords(t, got), renderRecords(t, want); g != w {
			t.Fatalf("%s: ReplayFrom(%d) differs from a full scan\ngot:  %.300s\nwant: %.300s", phase, seq, g, w)
		}
	}
	if floor > 0 {
		if _, err := tailFrom(d, floor-1); !errors.Is(err, ErrCompacted) {
			t.Fatalf("%s: ReplayFrom below the tail floor = %v, want ErrCompacted", phase, err)
		}
	}
}

func TestIndexedTailMatchesFullScan(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	assertTailsMatchScan(t, d, "empty store")
	p, err := d.Create("pol", mkVersion("Acme", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(p.ID, 1, mkVersion("Acme", "v2 with a longer payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendBatch(mkBatch(4, "batch")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(p.ID, 2, mkVersion("Acme", "v3")); err != nil {
		t.Fatal(err)
	}
	assertTailsMatchScan(t, d, "create/append/batch")

	// Reopen without Close: the index is rebuilt by recovery's replay.
	d = reopen(t, dir, Options{SnapshotThreshold: -1})
	assertTailsMatchScan(t, d, "reopen")
	if _, err := d.Create("after-reopen", mkVersion("Bmax", "b1")); err != nil {
		t.Fatal(err)
	}
	assertTailsMatchScan(t, d, "write after reopen")

	// A failed batch and a torn append are rolled back; neither may leave
	// an index entry, and the writes after them index at the right offsets.
	d.mu.Lock()
	good := d.wal
	d.wal = &failingWAL{inner: good, failAfter: 3}
	d.mu.Unlock()
	if _, err := d.AppendBatch(mkBatch(5, "doomed")); err == nil {
		t.Fatal("batch over a failing WAL succeeded")
	}
	d.mu.Lock()
	d.wal = &tornWAL{walFile: good, failNext: true}
	d.mu.Unlock()
	if _, err := d.Append(p.ID, 3, mkVersion("Acme", "torn")); err == nil {
		t.Fatal("append over a torn WAL succeeded")
	}
	assertTailsMatchScan(t, d, "rolled-back writes")
	if _, err := d.Append(p.ID, 3, mkVersion("Acme", "v4")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendBatch(mkBatch(2, "after-rollback")); err != nil {
		t.Fatal(err)
	}
	assertTailsMatchScan(t, d, "writes after rollback")

	// A corrupt tail is truncated at open and never indexed.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\xff\x00\x00\x00torn record")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d = reopen(t, dir, Options{SnapshotThreshold: -1})
	assertTailsMatchScan(t, d, "corrupt tail truncated")
	if _, err := d.Create("after-truncate", mkVersion("Cort", "c1")); err != nil {
		t.Fatal(err)
	}
	assertTailsMatchScan(t, d, "write after truncation")

	// A torn frame whose rollback failed stays in the file past the
	// durable boundary (the store turns read-only); tails stop at the
	// boundary.
	d.mu.Lock()
	d.wal = &stuckWAL{tornWAL{walFile: d.wal, failNext: true}}
	d.mu.Unlock()
	if _, err := d.Create("stuck", mkVersion("Dex", "d1")); err == nil {
		t.Fatal("create over a stuck WAL succeeded")
	}
	assertTailsMatchScan(t, d, "torn frame past the durable boundary")
}

// stuckWAL tears its next write like tornWAL and then refuses the
// rollback, leaving the torn frame in the file.
type stuckWAL struct{ tornWAL }

func (w *stuckWAL) Truncate(int64) error { return errors.New("injected truncate failure") }

// TestIndexedTailAcrossCompaction: a compaction that saved its snapshot
// but never rotated leaves records at or below the snapshot watermark in
// wal.log, and a completed one rotates wal.log into the retained
// generation; either way the tail past any legal watermark is exactly the
// scan's.
func TestIndexedTailAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Create("pol", mkVersion("Acme", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendBatch(mkBatch(3, "pre")); err != nil {
		t.Fatal(err)
	}
	// Snapshot saved, WAL untouched, process dies.
	saveCut(t, d)
	d = reopen(t, dir, Options{SnapshotThreshold: 600})
	if indexed := len(d.retained.index) + len(d.live.index); d.snapSeq != 4 || indexed != 4 {
		t.Fatalf("interrupted compaction: snapSeq %d with %d indexed records, want 4 and 4", d.snapSeq, indexed)
	}
	assertTailsMatchScan(t, d, "interrupted compaction")
	if _, err := d.Append(p.ID, 1, mkVersion("Acme", "v2")); err != nil {
		t.Fatal(err)
	}
	settle(d)
	assertTailsMatchScan(t, d, "write above the leftover records")

	// Writes past the threshold compact: wal.log rotates, the watermark
	// moves up and every tail is still the scan's. Each write waits for
	// the compaction it started.
	compactions := 0
	for i := 0; i < 40; i++ {
		before := d.snapSeq
		if _, err := d.Create(fmt.Sprintf("c%d", i), mkVersion("Bmax", strings.Repeat("x", 100))); err != nil {
			t.Fatal(err)
		}
		settle(d)
		if d.snapSeq != before {
			compactions++
		}
		assertTailsMatchScan(t, d, fmt.Sprintf("write %d", i))
	}
	if compactions < 2 {
		t.Fatalf("%d compactions, want at least 2", compactions)
	}
}

// TestIndexedTailOnFollower: a follower store indexes the records it
// applies, so it can feed further followers from any watermark.
func TestIndexedTailOnFollower(t *testing.T) {
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
	if _, err := pri.AppendBatch(mkBatch(3, "b")); err != nil {
		t.Fatal(err)
	}
	shipRecords(t, pri, fol)
	if _, err := pri.Append(p.ID, 1, mkVersion("Acme", "v2")); err != nil {
		t.Fatal(err)
	}
	shipRecords(t, pri, fol)
	assertTailsMatchScan(t, fol, "follower")
	for seq := uint64(0); seq <= pri.Seq(); seq++ {
		got, err := tailFrom(fol, seq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tailFrom(pri, seq)
		if err != nil {
			t.Fatal(err)
		}
		if renderRecords(t, got) != renderRecords(t, want) {
			t.Fatalf("follower tail from %d differs from the primary's", seq)
		}
	}
	fol = reopen(t, fdir, Options{})
	assertTailsMatchScan(t, fol, "follower reopened")
}

// TestIndexedTailSkipsRecordsBeforeTheWatermark corrupts one byte inside
// an early record of a live store's log. A tail that starts after that
// record never reads it; a tail that includes it still reports the
// corruption instead of shipping around it.
func TestIndexedTailSkipsRecordsBeforeTheWatermark(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendBatch(mkBatch(6, "rec")); err != nil {
		t.Fatal(err)
	}
	want, err := tailFrom(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	if _, _, _, err := replayWAL(bytes.NewReader(data), func(_ Record, off int64) error {
		offs = append(offs, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record 2, past its frame header.
	data[offs[1]+walHeaderSize+5] ^= 0x20
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := tailFrom(d, 2)
	if err != nil {
		t.Fatalf("tail past the corrupt record: %v", err)
	}
	if renderRecords(t, got) != renderRecords(t, want) || len(got) != 4 {
		t.Fatalf("tail past the corrupt record shipped %d records, want the 4 after it", len(got))
	}
	for _, seq := range []uint64{0, 1} {
		_, err := tailFrom(d, seq)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("corrupt wal record at offset %d", offs[1])) {
			t.Errorf("tail from %d over the corrupt record = %v, want the corruption at offset %d", seq, err, offs[1])
		}
	}
}

// TestCaughtUpTailReadsNoFile: a tail with nothing past its watermark is
// answered from the index without opening wal.log, while a tail that
// needs records from a missing log reports it instead of shipping
// nothing.
func TestCaughtUpTailReadsNoFile(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AppendBatch(mkBatch(2, "rec")); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.log")
	if err := os.Rename(walPath, walPath+".moved"); err != nil {
		t.Fatal(err)
	}
	defer os.Rename(walPath+".moved", walPath)
	if recs, err := tailFrom(d, d.Seq()); err != nil || len(recs) != 0 {
		t.Errorf("caught-up tail = %d records, %v; want none and no error", len(recs), err)
	}
	if _, err := tailFrom(d, d.Seq()-1); err == nil {
		t.Error("tail over a missing wal.log succeeded")
	}
}
