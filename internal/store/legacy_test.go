package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyV1Snapshot is a monolithic JSON snapshot (codec 1, payloads
// inline as base64) in the shape builds before snapshot format v2 wrote
// it. The store no longer parses the format; these tests only need the
// file on disk.
const legacyV1Snapshot = `{
  "codec": 1,
  "seq": 1,
  "next_id": 1,
  "policies": [
    {
      "meta": {"id": "p1", "name": "legacy-1.txt", "company": "LegacyCo1",
               "created": "2026-08-01T00:00:00Z", "updated": "2026-08-01T00:00:00Z", "versions": 1},
      "versions": [
        {"n": 1, "created": "2026-08-01T00:00:00Z", "company": "LegacyCo1", "bytes": 5, "payload": "aGVsbG8="}
      ]
    }
  ]
}`

// TestLegacyV1OnlyIsRefused: a directory whose only snapshot is the v1
// file must not open as an empty store (that would silently drop every
// policy in it). OpenDisk and Inspect both fail with the upgrade path and
// leave the directory exactly as they found it.
func TestLegacyV1OnlyIsRefused(t *testing.T) {
	dir := t.TempDir()
	v1Path := filepath.Join(dir, "store-snapshot.json")
	if err := os.WriteFile(v1Path, []byte(legacyV1Snapshot), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := OpenDisk(dir, Options{})
	if err == nil {
		d.Close()
		t.Fatal("OpenDisk opened a v1-only directory")
	}
	_, ierr := Inspect(dir)
	if ierr == nil {
		t.Fatal("Inspect reported on a v1-only directory")
	}
	for what, e := range map[string]error{"OpenDisk": err, "Inspect": ierr} {
		for _, want := range []string{"legacy v1 snapshot", snapshotV2Name, "d7110fa", "11eb374"} {
			if !strings.Contains(e.Error(), want) {
				t.Errorf("%s error does not name %q: %v", what, want, e)
			}
		}
	}

	got, err := os.ReadFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(legacyV1Snapshot)) {
		t.Error("refusal modified the v1 snapshot")
	}
	for _, name := range []string{snapshotV2Name, "wal.log"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("refusal created %s (stat err = %v)", name, err)
		}
	}
}

// TestStaleLegacyV1BesideV2: a compaction that crashed after writing
// snapshot.v2 but before deleting the v1 file leaves both behind. v2 is
// authoritative, so the directory opens with its full state, and the
// next compaction that rewrites the snapshot removes the stale file.
func TestStaleLegacyV1BesideV2(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, Options{})
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
	before := dumpState(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	v1Path := filepath.Join(dir, "store-snapshot.json")
	if err := os.WriteFile(v1Path, []byte(legacyV1Snapshot), 0o644); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect refused a v2 directory with a stale v1 file: %v", err)
	}
	if info.SnapshotCodec != snapshotCodecV2 || len(info.Policies) != 2 {
		t.Errorf("inspect = codec %d, %d policies; want codec %d, 2 policies",
			info.SnapshotCodec, len(info.Policies), snapshotCodecV2)
	}

	d2, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatalf("OpenDisk refused a v2 directory with a stale v1 file: %v", err)
	}
	if got := dumpState(t, d2); got != before {
		t.Errorf("state with a stale v1 file differs from v2:\n%s\nwant:\n%s", got, before)
	}
	if _, err := d2.Append("p2", 1, mkVersion("Acme", "payload-b2")); err != nil {
		t.Fatal(err)
	}
	after := dumpState(t, d2)
	if err := d2.Close(); err != nil { // compacts: rewrites snapshot.v2
		t.Fatal(err)
	}
	if _, err := os.Stat(v1Path); !os.IsNotExist(err) {
		t.Errorf("stale v1 snapshot survived compaction (stat err = %v)", err)
	}
	if got := dumpState(t, reopen(t, dir, Options{})); got != after {
		t.Errorf("state after compaction differs:\n%s\nwant:\n%s", got, after)
	}
}

// TestOpenDiskCreatesNestedDir: OpenDisk creates its data directory,
// parents included.
func TestOpenDiskCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "c")
	d, err := OpenDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("data directory not created: %v", err)
	}
}
