package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestInspectWALOnly: a directory that has never compacted (process
// abandoned before Close) has no snapshot; inspection reconstructs the
// policy census from the WAL alone.
func TestInspectWALOnly(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.txt", "b.txt"} {
		if _, err := d.Create(name, mkVersion("Acme", "payload-"+name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Append("p1", 1, mkVersion("Acme", "payload-a2")); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: the WAL is the only durable state.

	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotCodec != 0 {
		t.Errorf("codec = %d, want 0 (no snapshot)", info.SnapshotCodec)
	}
	if info.WALRecords != 3 || info.WALSeq != 3 {
		t.Errorf("wal records/seq = %d/%d, want 3/3", info.WALRecords, info.WALSeq)
	}
	if info.WALCorrupt != "" {
		t.Errorf("unexpected corrupt tail: %q", info.WALCorrupt)
	}
	if len(info.Policies) != 2 {
		t.Fatalf("policies = %d, want 2", len(info.Policies))
	}
	if info.Policies[0].ID != "p1" || info.Policies[0].Versions != 2 {
		t.Errorf("p1 = %+v, want 2 versions", info.Policies[0])
	}
	if info.Policies[1].ID != "p2" || info.Policies[1].Versions != 1 {
		t.Errorf("p2 = %+v, want 1 version", info.Policies[1])
	}
}

// TestInspectCorruptTailIsReadOnly: inspection reports a torn WAL tail
// but never truncates it — that is recovery's job on the next open.
func TestInspectCorruptTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("a.txt", mkVersion("Acme", "payload-a")); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, walPath)

	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALCorrupt == "" {
		t.Error("corrupt tail not reported")
	}
	if info.WALRecords != 1 {
		t.Errorf("wal records = %d, want 1 intact record", info.WALRecords)
	}
	if len(info.Policies) != 1 {
		t.Errorf("policies = %d, want 1", len(info.Policies))
	}
	if got := fileSize(t, walPath); got != sizeBefore {
		t.Errorf("inspection changed the WAL: %d -> %d bytes", sizeBefore, got)
	}
}

// TestInspectV2RoundTrip: a cleanly closed store inspects as codec 2 and
// the report survives a JSON round trip (the -json CLI path).
func TestInspectV2(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("a.txt", mkVersion("Acme", "payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotCodec != snapshotCodecV2 {
		t.Errorf("codec = %d, want %d", info.SnapshotCodec, snapshotCodecV2)
	}
	if info.SnapshotSeq != 1 || info.SnapshotBytes == 0 {
		t.Errorf("snapshot seq/bytes = %d/%d", info.SnapshotSeq, info.SnapshotBytes)
	}
	b, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var back Info
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.SnapshotCodec != info.SnapshotCodec || len(back.Policies) != len(info.Policies) {
		t.Errorf("JSON round trip lost fields: %+v", back)
	}
}

// TestInspectMissingDir: inspection needs an existing directory. A
// missing path or a regular file is an error, and nothing is created.
func TestInspectMissingDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-store")
	if _, err := Inspect(missing); err == nil {
		t.Error("Inspect of a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("Inspect created %s (stat err = %v)", missing, err)
	}
	file := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Inspect(file); err == nil {
		t.Error("Inspect of a regular file succeeded")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestInspectBetweenRotationAndSwap inspects a directory captured while a
// compaction is parked after writing its snapshot's temp file, between
// rotation and swap: the previous snapshot, the retained generation (the
// rotated log) and a live log holding one later write. The report shows
// the retained generation beside the live log and its census counts each
// record once, as recovery does.
func TestInspectBetweenRotationAndSwap(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{SnapshotThreshold: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	writeUntilCompacting(t, d, "a")
	settle(d)
	snapSeq := d.snapSeq
	// An append the rotation moves into the retained generation.
	if _, err := d.Append("p1", 1, mkVersion("Acme", "before the rotation")); err != nil {
		t.Fatal(err)
	}
	p := newParker(stepWritten)
	d.stepHook = p.hook
	writeUntilCompacting(t, d, "b")
	p.wait(t)
	cut := d.Seq()
	if _, err := d.Append("p1", 2, mkVersion("Acme", "after the rotation")); err != nil {
		t.Fatal(err)
	}
	captured := copyDir(t, dir)
	close(p.release)
	settle(d)

	info, err := Inspect(captured)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != snapSeq {
		t.Errorf("snapshot seq %d, want the previous snapshot's %d", info.SnapshotSeq, snapSeq)
	}
	if info.RetainedFirstSeq != snapSeq+1 || info.RetainedSeq != cut || info.RetainedRecords != int(cut-snapSeq) {
		t.Errorf("retained generation: %d records, seq %d-%d; want %d records, seq %d-%d",
			info.RetainedRecords, info.RetainedFirstSeq, info.RetainedSeq, cut-snapSeq, snapSeq+1, cut)
	}
	if want := fileSize(t, filepath.Join(captured, retainedWALName)); info.RetainedBytes != want || want == 0 {
		t.Errorf("retained bytes %d, file holds %d", info.RetainedBytes, want)
	}
	if info.WALRecords != 1 || info.WALSeq != cut+1 || info.WALBytes != fileSize(t, filepath.Join(captured, walName)) {
		t.Errorf("live wal: %d records, seq %d, %d bytes; want 1 record at seq %d", info.WALRecords, info.WALSeq, info.WALBytes, cut+1)
	}
	if info.RetainedCorrupt != "" || info.WALCorrupt != "" {
		t.Errorf("corrupt tails reported: %q %q", info.RetainedCorrupt, info.WALCorrupt)
	}
	// The census matches what recovery makes of the same directory.
	assertCensus(t, info, reopenCopy(t, captured))

	// Once the compaction is done the snapshot also holds every record of
	// the retained generation; the census still counts each once.
	info, err = Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != cut || info.RetainedSeq != cut {
		t.Errorf("after the swap: snapshot seq %d, retained generation ends at %d; want both %d", info.SnapshotSeq, info.RetainedSeq, cut)
	}
	assertCensus(t, info, d)
}

// assertCensus checks an Inspect report's policy rows against a store's
// list, versions and payload sizes.
func assertCensus(t *testing.T, info Info, st PolicyStore) {
	t.Helper()
	list, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Policies) != len(list) {
		t.Fatalf("census lists %d policies, the store %d", len(info.Policies), len(list))
	}
	for i, pol := range list {
		vs, err := st.Versions(pol.ID)
		if err != nil {
			t.Fatal(err)
		}
		var payload int64
		for _, v := range vs {
			payload += int64(v.Bytes)
		}
		if got := info.Policies[i]; got.ID != pol.ID || got.Versions != len(vs) || got.PayloadBytes != payload {
			t.Errorf("census row %+v, the store has %s with %d versions, %d payload bytes", got, pol.ID, len(vs), payload)
		}
	}
}

// TestInspectEndsTheLogAsRecoveryDoes: a corrupt record in the retained
// generation ends the log there, so the live log's record after the gap
// is dropped. Inspection reports what recovery keeps (three policies at
// seq 3, the live log ended by the gap at its first record) and changes
// no byte.
func TestInspectEndsTheLogAsRecoveryDoes(t *testing.T) {
	dir, _ := corruptRetainedDir(t)
	before := dirContents(t, dir)
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.RetainedRecords != 3 || info.RetainedFirstSeq != 1 || info.RetainedSeq != 3 || info.RetainedCorrupt == "" {
		t.Errorf("retained generation: %d records, seq %d-%d, corrupt %q; want 3 records, seq 1-3 and a corrupt tail",
			info.RetainedRecords, info.RetainedFirstSeq, info.RetainedSeq, info.RetainedCorrupt)
	}
	if info.WALRecords != 0 || info.WALSeq != 0 || info.WALBytes != 0 || !strings.Contains(info.WALCorrupt, "sequence gap") {
		t.Errorf("live wal: %d records, seq %d, %d bytes, corrupt %q; want none kept, ended by a sequence gap",
			info.WALRecords, info.WALSeq, info.WALBytes, info.WALCorrupt)
	}
	r := reopenCopy(t, dir)
	if len(info.Policies) != 3 || r.Seq() != 3 {
		t.Errorf("inspection lists %d policies, recovery keeps seq %d; want 3 policies at seq 3", len(info.Policies), r.Seq())
	}
	assertCensus(t, info, r)
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("inspection changed the directory")
	}
}

// dirContents maps each regular file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}
