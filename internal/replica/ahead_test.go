package replica

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/store"
)

// TestFollowerAheadOfFreshPrimaryRebootstraps covers a primary whose data
// directory was re-created (or restored from an older backup) behind the
// same URL: the follower's directory holds a longer, different history.
// The primary must refuse the follower's watermark instead of tailing
// from it, and the follower must end byte-identical to the primary after
// exactly one re-bootstrap, then keep tailing live writes.
func TestFollowerAheadOfFreshPrimaryRebootstraps(t *testing.T) {
	payloads := encodedPayloads(t)
	mkv := func(company string, i int) store.Version {
		return store.Version{
			VersionMeta: store.VersionMeta{Company: company, Stats: store.VersionStats{Nodes: 3 + i}},
			Payload:     payloads[i%len(payloads)],
		}
	}
	follow := func(primary, dir string) *Follower {
		t.Helper()
		fol, err := New(Options{
			Primary:    primary,
			Dir:        dir,
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
