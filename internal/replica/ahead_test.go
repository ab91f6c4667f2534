package replica

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// snapshotsTotal names the store's compaction counter.
const snapshotsTotal = "quagmire_store_snapshots_total"

// TestFollowerAheadOfFreshPrimaryRebootstraps covers a primary whose data
// directory was re-created (or restored from an older backup) behind the
// same URL: the follower's directory holds a longer, different history.
// The primary must refuse the follower's watermark instead of tailing
// from it, and the follower must end byte-identical to the primary after
// exactly one re-bootstrap, then keep tailing live writes. The
// re-bootstrap writes no snapshot of the store it replaces.
func TestFollowerAheadOfFreshPrimaryRebootstraps(t *testing.T) {
	payloads := encodedPayloads(t)
	mkv := func(company string, i int) store.Version {
		return store.Version{
			VersionMeta: store.VersionMeta{Company: company, Stats: store.VersionStats{Nodes: 3 + i}},
			Payload:     payloads[i%len(payloads)],
		}
	}
	reg := obs.NewRegistry()
	follow := func(primary, dir string) *Follower {
		t.Helper()
		fol, err := New(Options{
			Primary:    primary,
			Dir:        dir,
			Store:      store.Options{Obs: reg},
			BackoffMin: 2 * time.Millisecond,
			BackoffMax: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		fol.Start(Hooks{})
		t.Cleanup(func() { fol.Close() })
		return fol
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The old primary's history, fully replicated: seq 10.
	old := startPrimary(t, t.TempDir(), 0)
	t.Cleanup(func() { old.crash() })
	for i := 0; i < 10; i++ {
		if _, err := old.disk.Create(fmt.Sprintf("old-%d", i), mkv("Old", i)); err != nil {
			t.Fatal(err)
		}
	}
	fdir := t.TempDir()
	fol := follow(old.http.URL, fdir)
	if err := fol.WaitFor(ctx, old.disk.Seq()); err != nil {
		t.Fatal(err)
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh primary at seq 3 behind the same follower directory.
	fresh := startPrimary(t, t.TempDir(), 0)
	t.Cleanup(func() { fresh.crash() })
	for i := 0; i < 3; i++ {
		if _, err := fresh.disk.Create(fmt.Sprintf("new-%d", i), mkv("New", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	snapshots := reg.Counter(snapshotsTotal).Value()
	fol = follow(fresh.http.URL, fdir)
	if got := fol.Seq(); got != 10 {
		t.Fatalf("follower resumed at seq %d, want 10", got)
	}
	for fol.Status().Bootstraps == 0 {
		select {
		case <-ctx.Done():
			t.Fatalf("follower ahead of its primary never re-bootstrapped (status %+v)", fol.Status())
		case <-time.After(2 * time.Millisecond):
		}
	}
	converged := func(phase string) {
		t.Helper()
		for fol.Seq() != fresh.disk.Seq() {
			select {
			case <-ctx.Done():
				t.Fatalf("%s: follower at seq %d, primary at %d", phase, fol.Seq(), fresh.disk.Seq())
			case <-time.After(2 * time.Millisecond):
			}
		}
		if got, want := dumpStore(t, fol), dumpStore(t, fresh.disk); got != want {
			t.Fatalf("%s: follower state differs from the primary's", phase)
		}
	}
	converged("after re-bootstrap")
	if got := reg.Counter(snapshotsTotal).Value(); got != snapshots {
		t.Errorf("the re-bootstrap wrote %d snapshots of the store it replaced, want 0", got-snapshots)
	}

	// The re-bootstrapped follower tails live writes without another
	// snapshot.
	if _, err := fresh.disk.Create("live", mkv("New", 7)); err != nil {
		t.Fatal(err)
	}
	converged("live write")
	if st := fol.Status(); st.Bootstraps != 1 || st.LagSeq != 0 {
		t.Errorf("status = %+v, want exactly one bootstrap and no lag", st)
	}
}

// TestFailedRebootstrapKeepsAppliedRecords: a follower tails records that
// live only in its WAL, then its primary answers 410 and fails the
// snapshot fetch. The follower closes its store without snapshotting it
// and reopens it from the snapshot and the WAL, so it still serves every
// record it had applied, and no snapshot was written.
func TestFailedRebootstrapKeepsAppliedRecords(t *testing.T) {
	payloads := encodedPayloads(t)
	mkv := func(i int) store.Version {
		return store.Version{
			VersionMeta: store.VersionMeta{Company: "Co", Stats: store.VersionStats{Nodes: 3 + i}},
			Payload:     payloads[i%len(payloads)],
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	primary := startPrimary(t, t.TempDir(), 0)
	t.Cleanup(func() { primary.crash() })
	for i := 0; i < 3; i++ {
		if _, err := primary.disk.Create(fmt.Sprintf("boot-%d", i), mkv(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The proxy forwards to the primary in mode 0. In mode 1 the WAL
	// stream answers 410 and the snapshot fetch fails; in mode 2 the
	// primary is down, which ends the re-bootstrap attempts.
	var mode, fetches atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case mode.Load() == 0:
			primary.srv.Handler().ServeHTTP(w, r)
		case mode.Load() == 2:
			http.Error(w, "primary down", http.StatusServiceUnavailable)
		case r.URL.Path == "/v1/replicate/snapshot":
			fetches.Add(1)
			http.Error(w, "snapshot unavailable", http.StatusServiceUnavailable)
		default:
			http.Error(w, "compacted past the watermark", http.StatusGone)
		}
	}))
	t.Cleanup(func() { proxy.CloseClientConnections(); proxy.Close() })

	reg := obs.NewRegistry()
	fol, err := New(Options{
		Primary:    proxy.URL,
		Dir:        t.TempDir(),
		Store:      store.Options{Obs: reg},
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fol.Start(Hooks{})
	t.Cleanup(func() { fol.Close() })
	// These records reach the follower through its WAL only.
	for i := 3; i < 7; i++ {
		if _, err := primary.disk.Create(fmt.Sprintf("tail-%d", i), mkv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fol.WaitFor(ctx, primary.disk.Seq()); err != nil {
		t.Fatal(err)
	}
	snapshots := reg.Counter(snapshotsTotal).Value()

	want := dumpStore(t, primary.disk)
	mode.Store(1)
	proxy.CloseClientConnections()
	wait := func(what string, done func() bool) {
		t.Helper()
		for !done() {
			select {
			case <-ctx.Done():
				t.Fatalf("%s (status %+v)", what, fol.Status())
			case <-time.After(time.Millisecond):
			}
		}
	}
	wait("follower never fetched a snapshot after the 410", func() bool { return fetches.Load() > 0 })
	// Two more turns of the follower's loop: the first ends any attempt in
	// flight, whose reopen comes before it counts; the second met the
	// primary down and started no attempt.
	mode.Store(2)
	turns := fol.Status().Reconnects
	wait("follower loop stalled", func() bool { return fol.Status().Reconnects >= turns+2 })
	if got := fol.Seq(); got != primary.disk.Seq() {
		t.Errorf("reopened follower at seq %d, want %d", got, primary.disk.Seq())
	}
	if got := dumpStore(t, fol); got != want {
		t.Errorf("reopened follower serves\n%s\nwant\n%s", got, want)
	}
	if got := reg.Counter(snapshotsTotal).Value(); got != snapshots {
		t.Errorf("re-bootstrap attempts wrote %d snapshots of the store they replaced, want 0", got-snapshots)
	}
}
