package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/obs"
)

// reopen abandons d without closing it (simulating a killed process: the
// WAL holds everything, no clean-shutdown snapshot) and opens a fresh
// store over the same directory.
func reopen(t *testing.T, dir string, opts Options) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// dumpState renders everything observable through the interface as JSON
// (which also strips time.Time's in-process monotonic clock reading, so
// pre-crash and post-recovery states compare equal).
func dumpState(t *testing.T, s PolicyStore) string {
	t.Helper()
	out := map[string]any{}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	out["list"] = list
	for _, p := range list {
		vs, err := s.Versions(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		out["versions:"+p.ID] = vs
		for _, vm := range vs {
			payload, err := s.LoadPayload(p.ID, vm.N)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("payload:%s:%d", p.ID, vm.N)] = string(payload)
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCrashRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Create("pol", mkVersion("Acme", "v1-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(p.ID, 1, mkVersion("Acme Corp", "v2-payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("other", mkVersion("Bmax", "b1")); err != nil {
		t.Fatal(err)
	}
	before := dumpState(t, d)

	// No Close: the process "dies" and a new one recovers from the WAL.
	d2 := reopen(t, dir, Options{})
	after := dumpState(t, d2)
	if before != after {
		t.Errorf("recovered state differs:\nbefore: %s\nafter:  %s", before, after)
	}
	// ID assignment continues where the dead process left off.
	p3, err := d2.Create("third", mkVersion("Cort", "c1"))
	if err != nil {
		t.Fatal(err)
	}
	if p3.ID != "p3" {
		t.Errorf("post-recovery ID = %q, want p3", p3.ID)
	}
}

func TestCleanShutdownSnapshotsAndEmptiesWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("pol", mkVersion("Acme", "v1")); err != nil {
		t.Fatal(err)
	}
	before := dumpState(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Errorf("wal after close: %v (size %d), want empty", err, fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotV2Name)); err != nil {
		t.Errorf("snapshot missing: %v", err)
	}
	d2 := reopen(t, dir, Options{})
	if after := dumpState(t, d2); before != after {
		t.Errorf("snapshot-recovered state differs")
	}
}

func TestCorruptTrailingRecordTruncatedWithWarning(t *testing.T) {
	for name, corruptor := range map[string]func(intact []byte) []byte{
		// A torn append: header promises more bytes than exist.
		"torn-record": func(intact []byte) []byte {
			return append(append([]byte{}, intact...), 0xFF, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 'x', 'y')
		},
		// A flipped bit in the final record's payload fails the CRC.
		"bit-flip": func(intact []byte) []byte {
			return append(append([]byte{}, intact[:len(intact)-1]...), intact[len(intact)-1]^0x01)
		},
		// Garbage after the valid prefix.
		"garbage-tail": func(intact []byte) []byte {
			return append(append([]byte{}, intact...), []byte("not a wal record")...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Create("pol", mkVersion("Acme", "v1")); err != nil {
				t.Fatal(err)
			}
			before := dumpState(t, d)
			// Abandon d without Close (no snapshot), then damage the log.
			walPath := filepath.Join(dir, "wal.log")
			intact, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, corruptor(intact), 0o644); err != nil {
				t.Fatal(err)
			}
			var logBuf bytes.Buffer
			d2, err := OpenDisk(dir, Options{Logger: log.New(&logBuf, "", 0)})
			if err != nil {
				t.Fatalf("recovery must not fail on a corrupt tail: %v", err)
			}
			defer d2.Close()
			if !bytes.Contains(logBuf.Bytes(), []byte("corrupt wal record")) {
				t.Errorf("no corruption warning logged: %q", logBuf.String())
			}
			if name == "bit-flip" {
				// The sole record was damaged: nothing survives.
				list, _ := d2.List()
				if len(list) != 0 {
					t.Errorf("bit-flipped record replayed: %+v", list)
				}
				return
			}
			if after := dumpState(t, d2); before != after {
				t.Errorf("intact prefix not preserved")
			}
			// The file itself was truncated back to the intact prefix.
			fixed, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fixed, intact) {
				t.Errorf("wal not truncated to intact prefix: %d bytes vs %d", len(fixed), len(intact))
			}
		})
	}
}

func TestSnapshotCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 6; i++ {
		if _, err := d.Create("pol", mkVersion("Acme", "some payload long enough to trip the threshold quickly")); err != nil {
			t.Fatal(err)
		}
		settle(d) // the compaction runs in the background
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotV2Name)); err != nil {
		t.Fatalf("no snapshot despite threshold: %v", err)
	}
	d.mu.RLock()
	walBytes := d.live.size
	d.mu.RUnlock()
	if walBytes >= 6*60 {
		t.Errorf("wal never compacted: %d bytes", walBytes)
	}
	// Everything is still there across snapshot+wal recovery.
	d2 := reopen(t, dir, Options{})
	list, err := d2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 6 {
		t.Errorf("recovered %d policies, want 6", len(list))
	}
}

func TestRecoveryMetrics(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("pol", mkVersion("Acme", "v1")); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close; reopen with a registry and check the replay
	// counters landed.
	reg := obs.NewRegistry()
	d2 := reopen(t, dir, Options{Obs: reg})
	if _, err := d2.Create("pol2", mkVersion("Bmax", "v1")); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["quagmire_store_wal_replayed_records_total"]; n < 1 {
		t.Errorf("replayed records counter = %d, want >= 1", n)
	}
	if _, ok := snap.Gauges[`quagmire_store_recovery_seconds{phase="replay"}`]; !ok {
		t.Errorf("recovery gauge missing: %v", snap.Gauges)
	}
	if b := snap.Gauges["quagmire_store_wal_bytes"]; b <= 0 {
		t.Errorf("wal bytes gauge = %v, want > 0", b)
	}
	if n := snap.Counters[`quagmire_store_ops_total{op="create"}`]; n != 1 {
		t.Errorf("create op counter = %d, want 1", n)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("pol", mkVersion("Acme", "v1")); err == nil {
		t.Error("create after close succeeded")
	}
	h := d.Health()
	if h.OK() {
		t.Error("closed store reports healthy")
	}
}

// TestInterruptedCompactionRecovery pins crash-atomicity of compaction:
// a crash after the snapshot is saved but before the WAL is truncated
// leaves both behind, and replay must skip the records the snapshot
// already contains instead of failing on duplicate creates or silently
// duplicating versions.
func TestInterruptedCompactionRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Create("pol", mkVersion("Acme", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(p.ID, 1, mkVersion("Acme", "v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("other", mkVersion("Bmax", "b1")); err != nil {
		t.Fatal(err)
	}
	before := dumpState(t, d)
	// Simulate the interrupted compaction: snapshot saved, WAL untouched,
	// process dies (no Close).
	saveCut(t, d)
	var logBuf bytes.Buffer
	d2, err := OpenDisk(dir, Options{Logger: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatalf("recovery after interrupted compaction failed: %v", err)
	}
	defer d2.Close()
	if after := dumpState(t, d2); before != after {
		t.Errorf("state diverged after interrupted compaction:\nbefore: %s\nafter:  %s", before, after)
	}
	if meta, _ := d2.Get(p.ID); meta.Versions != 2 {
		t.Errorf("policy %s has %d versions, want 2 (append replayed twice?)", p.ID, meta.Versions)
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("skipped")) {
		t.Errorf("no skip notice logged: %q", logBuf.String())
	}
	// Writes continue with fresh sequence numbers and survive another crash.
	p3, err := d2.Create("third", mkVersion("Cort", "c1"))
	if err != nil {
		t.Fatal(err)
	}
	if p3.ID != "p3" {
		t.Errorf("post-recovery ID = %q, want p3", p3.ID)
	}
	d3 := reopen(t, dir, Options{})
	if list, _ := d3.List(); len(list) != 3 {
		t.Errorf("second recovery lists %d policies, want 3", len(list))
	}
	if meta, _ := d3.Get(p.ID); meta.Versions != 2 {
		t.Errorf("policy %s has %d versions after second recovery, want 2", p.ID, meta.Versions)
	}
}

// tornWAL makes the next write emit half its bytes and then fail, like
// ENOSPC striking mid-record.
type tornWAL struct {
	walFile
	failNext bool
}

func (w *tornWAL) Write(p []byte) (int, error) {
	if w.failNext {
		w.failNext = false
		n, _ := w.walFile.Write(p[:len(p)/2])
		return n, errors.New("injected: no space left on device")
	}
	return w.walFile.Write(p)
}

func TestFailedAppendRollsBackTornFrame(t *testing.T) {
	// Regression: a failed append used to leave its torn frame in the log
	// while the store kept acknowledging writes appended after it —
	// recovery would then truncate at the torn frame and silently discard
	// every later acknowledged write.
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Create("pol", mkVersion("Acme", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	tw := &tornWAL{walFile: d.wal, failNext: true}
	d.mu.Lock()
	d.wal = tw
	d.mu.Unlock()
	if _, err := d.Append(p.ID, 1, mkVersion("Acme", "torn")); err == nil {
		t.Fatal("append over failing WAL succeeded")
	}
	if d.Health().OK() {
		t.Error("health OK right after a WAL write failure")
	}
	// The torn frame was rolled back, so this write is durable at a clean
	// record boundary.
	if _, err := d.Append(p.ID, 1, mkVersion("Acme", "v2")); err != nil {
		t.Fatalf("append after rollback failed: %v", err)
	}
	if !d.Health().OK() {
		t.Errorf("health still degraded after successful rollback + write: %+v", d.Health())
	}
	before := dumpState(t, d)
	// Crash-reopen: every acknowledged write is recovered, and the log has
	// no corruption to warn about.
	var logBuf bytes.Buffer
	d2, err := OpenDisk(dir, Options{Logger: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if bytes.Contains(logBuf.Bytes(), []byte("corrupt")) {
		t.Errorf("rolled-back frame still reads as corruption: %q", logBuf.String())
	}
	if after := dumpState(t, d2); before != after {
		t.Errorf("acknowledged writes lost:\nbefore: %s\nafter:  %s", before, after)
	}
}

// brokenWAL fails every write and every truncate: the un-rollback-able
// worst case.
type brokenWAL struct {
	walFile
}

func (w *brokenWAL) Write(p []byte) (int, error) { return 0, errors.New("injected write failure") }
func (w *brokenWAL) Truncate(int64) error        { return errors.New("injected truncate failure") }

func TestUnrollbackableWALFailureMakesStoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Create("pol", mkVersion("Acme", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	orig := d.wal
	d.wal = &brokenWAL{walFile: orig}
	d.mu.Unlock()
	if _, err := d.Append(p.ID, 1, mkVersion("Acme", "v2")); err == nil {
		t.Fatal("append over broken WAL succeeded")
	}
	// Even with the file handle healthy again, the log may end mid-frame:
	// the store must stay read-only rather than risk appending records
	// recovery would discard.
	d.mu.Lock()
	d.wal = orig
	d.mu.Unlock()
	if _, err := d.Append(p.ID, 1, mkVersion("Acme", "v2")); err == nil {
		t.Error("append accepted after failed rollback")
	}
	if _, err := d.Create("other", mkVersion("Bmax", "b1")); err == nil {
		t.Error("create accepted after failed rollback")
	}
	if h := d.Health(); h.OK() || h.Detail == "" {
		t.Errorf("health = %+v, want permanently degraded with detail", h)
	}
	// Reads keep working.
	if _, err := d.Get(p.ID); err != nil {
		t.Errorf("read on degraded store failed: %v", err)
	}
}
