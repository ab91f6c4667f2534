package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/obs"
)

// settle waits for the background compaction the last write may have
// started. Callers issue no writes meanwhile.
func settle(d *Disk) { d.bg.Wait() }

// saveCut saves a snapshot of d's current state and leaves both WAL files
// as they are: what a compaction that crashed right after saving its
// snapshot, or one that could not rotate, leaves behind.
func saveCut(t *testing.T, d *Disk) {
	t.Helper()
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.mu.RLock()
	c := d.cutLocked()
	d.mu.RUnlock()
	sortByID(c.policies, func(st *policyState) string { return st.Meta.ID })
	sf, _, err := saveSnapshotV2(d.dir, c.hdr, c.policies, c.load, nil)
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()
}

// walFiles lists the WAL files in dir.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, name := range []string{walName, retainedWALName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			out = append(out, name)
		}
	}
	return out
}

// copyDir copies every regular file in src into a fresh directory: the
// directory as a crash at this instant leaves it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// parker is a compaction step hook that parks the first compaction to
// reach its step until released.
type parker struct {
	at      compactStep
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func newParker(at compactStep) *parker {
	return &parker{at: at, reached: make(chan struct{}), release: make(chan struct{})}
}

func (p *parker) hook(s compactStep) {
	if s == p.at {
		p.once.Do(func() {
			close(p.reached)
			<-p.release
		})
	}
}

func (p *parker) wait(t *testing.T) {
	t.Helper()
	select {
	case <-p.reached:
	case <-time.After(20 * time.Second):
		t.Fatal("compaction never reached its step")
	}
}

// compacting reports whether a background compaction is scheduled or
// running.
func compacting(d *Disk) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.compacting
}

// writeUntilCompacting writes policies one at a time until a write starts
// a background compaction.
func writeUntilCompacting(t *testing.T, d *Disk, prefix string) {
	t.Helper()
	for i := 0; !compacting(d); i++ {
		if i == 1000 {
			t.Fatal("no compaction after 1000 writes")
		}
		if _, err := d.Create(fmt.Sprintf("%s-%d", prefix, i), mkVersion("Acme", strings.Repeat(prefix, 40))); err != nil {
			t.Fatal(err)
		}
	}
}

// assertWALBytes checks that Health and the wal-bytes gauge count both
// WAL files.
func assertWALBytes(t *testing.T, d *Disk, reg *obs.Registry, dir, phase string) {
	t.Helper()
	var onDisk int64
	for _, name := range walFiles(t, dir) {
		onDisk += fileSize(t, filepath.Join(dir, name))
	}
	if h := d.Health(); h.WALBytes != onDisk {
		t.Errorf("%s: Health().WALBytes = %d, want %d (both files)", phase, h.WALBytes, onDisk)
	}
	if g := reg.Snapshot().Gauges["quagmire_store_wal_bytes"]; int64(g) != onDisk {
		t.Errorf("%s: wal bytes gauge = %v, want %d", phase, g, onDisk)
	}
}

var stepNames = map[compactStep]string{
	stepRotated: "rotated", stepWritten: "written", stepRenamed: "renamed",
	stepSwapped: "swapped", stepDropped: "dropped",
}

// TestCompactionCrashPoints parks a compaction after each of its steps,
// a background one and Close's alike, and copies the data directory
// there: the state a crash at that point leaves. A background compaction
// holds no lock while parked, so writes acknowledged meanwhile are in the
// copy too. The reopened copy must hold every acknowledged write exactly
// once and tail like a full scan, and no directory may hold more than two
// WAL files.
func TestCompactionCrashPoints(t *testing.T) {
	for _, mode := range []string{"background", "close"} {
		for step := stepRotated; step <= stepDropped; step++ {
			t.Run(mode+"/"+stepNames[step], func(t *testing.T) {
				dir := t.TempDir()
				reg := obs.NewRegistry()
				d, err := OpenDisk(dir, Options{SnapshotThreshold: 4 << 10, Obs: reg})
				if err != nil {
					t.Fatal(err)
				}
				// A first compaction leaves a retained generation for the
				// next rotation to replace.
				writeUntilCompacting(t, d, "a")
				settle(d)
				if _, err := d.Append("p1", 1, mkVersion("Acme", "p1 v2")); err != nil {
					t.Fatal(err)
				}
				p := newParker(step)
				d.stepHook = p.hook
				var closed chan error
				if mode == "background" {
					writeUntilCompacting(t, d, "b")
					p.wait(t)
					// Writers never wait for a parked compaction.
					if _, err := d.Append("p1", 2, mkVersion("Acme", "p1 v3")); err != nil {
						t.Fatal(err)
					}
					if _, err := d.AppendBatch(mkBatch(3, "parked")); err != nil {
						t.Fatal(err)
					}
					assertWALBytes(t, d, reg, dir, "parked")
				} else {
					closed = make(chan error, 1)
					go func() { closed <- d.Close() }()
					p.wait(t)
				}
				want := dumpState(t, d)
				crashed := copyDir(t, dir)
				if n := walFiles(t, crashed); len(n) > 2 {
					t.Fatalf("%d WAL files: %v", len(n), n)
				}
				r, err := OpenDisk(crashed, Options{SnapshotThreshold: -1})
				if err != nil {
					t.Fatal(err)
				}
				if got := dumpState(t, r); got != want {
					t.Errorf("recovered state differs from the acknowledged writes:\ngot:  %.400s\nwant: %.400s", got, want)
				}
				assertTailsMatchScan(t, r, "recovered")
				r.CloseWithoutSnapshot()

				close(p.release)
				if mode == "close" {
					if err := <-closed; err != nil {
						t.Fatal(err)
					}
				} else {
					settle(d)
					assertTailsMatchScan(t, d, "after the compaction")
					assertWALBytes(t, d, reg, dir, "after the compaction")
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
				}
				// Close leaves one snapshot and an empty wal.log.
				if n := walFiles(t, dir); len(n) != 1 || fileSize(t, filepath.Join(dir, walName)) != 0 {
					t.Errorf("after Close: WAL files %v, wal.log %d bytes; want an empty wal.log only", n, fileSize(t, filepath.Join(dir, walName)))
				}
				if got := dumpState(t, reopen(t, dir, Options{})); got != want {
					t.Error("state after Close differs from the acknowledged writes")
				}
			})
		}
	}
}

// TestFailedCompactionLosesNothing: a compaction that rotates and then
// fails to write its snapshot leaves the retained generation uncovered.
// Nothing is lost, the next compaction does not rotate over that
// generation, and once a snapshot can be written again it covers a cut no
// lower than the failed one.
func TestFailedCompactionLosesNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	writeUntilCompacting(t, d, "a")
	settle(d)
	// A directory in the temp snapshot's place makes every snapshot write
	// fail after the rotation.
	blocker := filepath.Join(dir, snapshotV2Name+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	writeUntilCompacting(t, d, "b")
	settle(d)
	if d.Health().OK() {
		t.Error("health OK right after a failed compaction")
	}
	failedCut := d.retained.index[len(d.retained.index)-1].seq
	if failedCut <= d.snapSeq {
		t.Fatalf("failed compaction: retained generation ends at %d, snapshot at %d", failedCut, d.snapSeq)
	}
	want := dumpState(t, d)
	if got := dumpState(t, reopenCopy(t, dir)); got != want {
		t.Fatal("a crash after the failed compaction loses writes")
	}
	// The next compaction fails too, without rotating over the uncovered
	// generation.
	writeUntilCompacting(t, d, "c")
	settle(d)
	if got := d.retained.index[len(d.retained.index)-1].seq; got != failedCut {
		t.Fatalf("a compaction rotated over the uncovered generation: it now ends at %d, want %d", got, failedCut)
	}
	want = dumpState(t, d)
	if got := dumpState(t, reopenCopy(t, dir)); got != want {
		t.Fatal("a crash after the second failed compaction loses writes")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	writeUntilCompacting(t, d, "d")
	settle(d)
	if d.snapSeq < failedCut {
		t.Fatalf("retry snapshot at %d, below the failed cut %d", d.snapSeq, failedCut)
	}
	if !d.Health().OK() {
		t.Errorf("health still degraded after a successful compaction and write: %+v", d.Health())
	}
	assertTailsMatchScan(t, d, "after the retry")
	// Now covered, the generation is replaced by the next rotation.
	writeUntilCompacting(t, d, "e")
	settle(d)
	if first := d.retained.index[0].seq; first <= failedCut {
		t.Errorf("retained generation still starts at %d after a covered rotation", first)
	}
	want = dumpState(t, d)
	if got := dumpState(t, reopenCopy(t, dir)); got != want {
		t.Fatal("recovered state differs after the retry")
	}
}

// reopenCopy opens a copy of dir, as a crash at this instant leaves it.
func reopenCopy(t *testing.T, dir string) *Disk {
	t.Helper()
	r, err := OpenDisk(copyDir(t, dir), Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWithoutSnapshot() })
	return r
}

// blockingWriter parks its first Write until released.
type blockingWriter struct {
	started, release chan struct{}
	once             sync.Once
	buf              bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return w.buf.Write(p)
}

// TestSnapshotToDoesNotBlockWrites: a follower bootstrap streams a cut
// taken under a brief lock, so an Append issued while the stream is
// parked on a blocked connection returns, and the stream still opens as a
// valid snapshot at its watermark (the state before the Append).
func TestSnapshotToDoesNotBlockWrites(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("pol", mkVersion("Acme", "v1")); err != nil {
		t.Fatal(err)
	}
	// Snapshotted at Close, p1's payload is read from the snapshot file
	// while the stream runs.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = reopen(t, dir, Options{SnapshotThreshold: -1})
	if _, err := d.AppendBatch(mkBatch(2, "b")); err != nil {
		t.Fatal(err)
	}
	want := dumpState(t, d)
	w := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
	type result struct {
		seq uint64
		err error
	}
	streamed := make(chan result, 1)
	go func() {
		seq, err := d.SnapshotTo(w, nil)
		streamed <- result{seq, err}
	}()
	<-w.started
	appended := make(chan error, 1)
	go func() {
		_, err := d.Append("p1", 1, mkVersion("Acme", "v2"))
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(w.release)
		t.Fatal("Append blocked behind a parked SnapshotTo")
	}
	if _, err := d.LoadPayload("p1", 2); err != nil {
		t.Fatal(err)
	}
	close(w.release)
	r := <-streamed
	if r.err != nil {
		t.Fatal(r.err)
	}
	fdir := t.TempDir()
	seq, err := InstallSnapshot(fdir, &w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != r.seq || seq != 3 {
		t.Fatalf("installed watermark %d, SnapshotTo said %d, want 3", seq, r.seq)
	}
	fol := reopen(t, fdir, Options{})
	if got := dumpState(t, fol); got != want {
		t.Error("the parked stream's snapshot differs from the state at its watermark")
	}
	shipRecords(t, d, fol)
	if dumpState(t, fol) != dumpState(t, d) {
		t.Error("snapshot plus tail differs from the primary")
	}
}

// TestCompactionRaceStress runs writers (Create, Append, AppendBatch) and
// readers (LoadPayload, ReplayFrom, SnapshotTo) against compactions that
// start every few records (run under -race). Every payload read matches
// the acknowledged write, every tail is consecutive, every snapshot
// installs at its watermark, no more than two WAL files ever exist, and
// the store reopens, and a follower rebuilds it, byte-identically.
func TestCompactionRaceStress(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: 2 << 10, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var acked sync.Map // "id/n" -> payload
	payloadOf := func(tag string, i int) Version {
		return mkVersion("Acme", fmt.Sprintf("%s-%d-%s", tag, i, strings.Repeat("x", 50+i%150)))
	}
	done := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var mine []string
			for i := 0; i < 150; i++ {
				tag := fmt.Sprintf("w%d", w)
				if len(mine) == 0 || i%3 == 0 {
					v := payloadOf(tag, i)
					p, err := d.Create(fmt.Sprintf("%s-%d", tag, i), v)
					if err != nil {
						t.Errorf("create: %v", err)
						return
					}
					acked.Store(p.ID+"/1", string(v.Payload))
					mine = append(mine, p.ID)
					continue
				}
				id := mine[i%len(mine)]
				vs, err := d.Versions(id)
				if err != nil {
					t.Errorf("versions: %v", err)
					return
				}
				v := payloadOf(tag, i)
				if _, err := d.Append(id, len(vs), v); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				acked.Store(fmt.Sprintf("%s/%d", id, len(vs)+1), string(v.Payload))
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 40; i++ {
			batch := mkBatch(3, fmt.Sprintf("batch%d", i))
			ps, err := d.AppendBatch(batch)
			if err != nil {
				t.Errorf("batch: %v", err)
				return
			}
			for j, p := range ps {
				acked.Store(p.ID+"/1", string(batch[j].Version.Payload))
			}
		}
	}()
	// Payload reads see exactly the acknowledged bytes, inline or ref'd.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for rng := rand.New(rand.NewSource(1)); ; {
			select {
			case <-done:
				return
			default:
			}
			var keys []string
			acked.Range(func(k, _ any) bool { keys = append(keys, k.(string)); return len(keys) < 64 })
			for _, k := range keys {
				var id string
				var n int
				fmt.Sscanf(strings.Replace(k, "/", " ", 1), "%s %d", &id, &n)
				got, err := d.LoadPayload(id, n)
				want, _ := acked.Load(k)
				if err != nil || string(got) != want.(string) {
					t.Errorf("LoadPayload(%s) = %.40q, %v; want %.40q", k, got, err, want)
					return
				}
			}
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}()
	// Tails from any servable watermark are consecutive records.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for rng := rand.New(rand.NewSource(2)); ; {
			select {
			case <-done:
				return
			default:
			}
			from := uint64(0)
			if s := d.Seq(); s > 0 {
				from = uint64(rng.Int63n(int64(s)))
			}
			prev := from
			err := d.ReplayFrom(from, func(rec Record) error {
				if rec.Seq != prev+1 {
					return fmt.Errorf("gap: %d after %d", rec.Seq, prev)
				}
				prev = rec.Seq
				return nil
			})
			if err != nil && !errors.Is(err, ErrCompacted) {
				t.Errorf("ReplayFrom(%d): %v", from, err)
				return
			}
			if n := walFiles(t, dir); len(n) > 2 {
				t.Errorf("%d WAL files: %v", len(n), n)
				return
			}
		}
	}()
	// Snapshot streams install at their watermark, which never regresses.
	var lastSnap []byte
	var lastSeq uint64
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			seq, err := d.SnapshotTo(&buf, nil)
			if err != nil {
				t.Errorf("SnapshotTo: %v", err)
				return
			}
			if seq < lastSeq {
				t.Errorf("snapshot watermark regressed: %d after %d", seq, lastSeq)
				return
			}
			installed, err := InstallSnapshot(t.TempDir(), bytes.NewReader(buf.Bytes()))
			if err != nil || installed != seq {
				t.Errorf("snapshot at %d installed at %d: %v", seq, installed, err)
				return
			}
			lastSeq = seq
			lastSnap = buf.Bytes()
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	settle(d)
	if t.Failed() {
		return
	}
	if n := reg.Counter("quagmire_store_snapshots_total").Value(); n < 5 {
		t.Fatalf("%d compactions, want at least 5", n)
	}
	acked.Range(func(k, v any) bool {
		var id string
		var n int
		fmt.Sscanf(strings.Replace(k.(string), "/", " ", 1), "%s %d", &id, &n)
		if got, err := d.LoadPayload(id, n); err != nil || string(got) != v.(string) {
			t.Errorf("acknowledged %s lost: %v", k, err)
		}
		return true
	})
	assertTailsMatchScan(t, d, "after the storm")
	want := dumpState(t, d)
	// A follower bootstrapped from a mid-storm snapshot catches up by tail
	// when its watermark is still servable, else from a fresh snapshot.
	fdir := t.TempDir()
	if _, err := InstallSnapshot(fdir, bytes.NewReader(lastSnap)); err != nil {
		t.Fatal(err)
	}
	fol := reopen(t, fdir, Options{})
	if err := d.ReplayFrom(fol.Seq(), func(rec Record) error { return fol.ApplyRecord(rec) }); errors.Is(err, ErrCompacted) {
		fol.CloseWithoutSnapshot()
		var buf bytes.Buffer
		if _, err := d.SnapshotTo(&buf, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := InstallSnapshot(fdir, &buf); err != nil {
			t.Fatal(err)
		}
		fol = reopen(t, fdir, Options{})
	} else if err != nil {
		t.Fatal(err)
	}
	if got := dumpState(t, fol); got != want {
		t.Error("follower differs from the primary")
	}
	// Abandoned without Close, the directory recovers the same state.
	if got := dumpState(t, reopenCopy(t, dir)); got != want {
		t.Error("crash recovery differs from the live store")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dumpState(t, reopen(t, dir, Options{})); got != want {
		t.Error("reopened store differs")
	}
}

// TestCorruptRetainedGenerationEndsTheLog: the retained generation and
// the live log are one logical log, so a corrupt record in the retained
// generation above the snapshot watermark ends the usable log there; the
// live log's records would follow a gap, and recovery drops them too
// instead of applying them over missing writes.
func TestCorruptRetainedGenerationEndsTheLog(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendBatch(mkBatch(3, "kept")); err != nil {
		t.Fatal(err)
	}
	kept := dumpState(t, d)
	if _, err := d.AppendBatch(mkBatch(2, "torn")); err != nil {
		t.Fatal(err)
	}
	// Rotate by hand, as a compaction whose snapshot never landed would.
	d.mu.Lock()
	if err := d.rotateLocked(); err != nil {
		t.Fatal(err)
	}
	d.mu.Unlock()
	if _, err := d.Create("live", mkVersion("Live", "after the rotation")); err != nil {
		t.Fatal(err)
	}
	d.CloseWithoutSnapshot()
	// Tear record 4, the first of the second batch.
	path := filepath.Join(dir, retainedWALName)
	data, err := os.ReadFile(path)
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
	data[offs[3]+walHeaderSize+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, dir, Options{SnapshotThreshold: -1})
	if got := dumpState(t, r); got != kept {
		t.Errorf("recovered past the corrupt record:\ngot:  %.400s\nwant: %.400s", got, kept)
	}
	if r.Seq() != 3 {
		t.Errorf("recovered seq %d, want 3", r.Seq())
	}
	assertTailsMatchScan(t, r, "after the corrupt retained record")
	if n := fileSize(t, filepath.Join(dir, walName)); n != 0 {
		t.Errorf("wal.log keeps %d bytes past the gap", n)
	}
	// New writes continue the sequence with nothing hidden.
	if _, err := r.Create("next", mkVersion("Next", "n")); err != nil {
		t.Fatal(err)
	}
	assertTailsMatchScan(t, r, "write after the truncation")
}
