package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStoreInspectMissingDir: inspecting a path that does not exist
// fails (a non-zero exit) and leaves nothing behind.
func TestStoreInspectMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "no-such-store")
	out, err := capture(t, func() error { return run([]string{"store", "inspect", "-data", dir}) })
	if err == nil {
		t.Fatalf("inspect of a missing directory succeeded:\n%s", out)
	}
	if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
		t.Errorf("inspect created %s (stat err = %v)", dir, serr)
	}
}
