package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// TestReplicateWALRefusesWatermarkAheadOfPrimary pins the WAL tail's
// answer to a follower's watermark: beyond the primary's seq it is 410
// with the primary's seq (the follower's history diverged and it must
// re-bootstrap), while at or below it the stream opens with 200 and ships
// exactly the records past the watermark.
func TestReplicateWALRefusesWatermarkAheadOfPrimary(t *testing.T) {
	p, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenDisk(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < 3; i++ {
		if _, err := st.Create("pol", store.Version{Payload: []byte("payload " + strconv.Itoa(i))}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Options{Pipeline: p, Store: st, Recovery: RecoveryOptions{WarmWorkers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.CloseClientConnections(); ts.Close(); s.Close() })

	// tail opens the stream from a watermark, reads want records if the
	// stream opened, and hangs up.
	tail := func(from uint64, want int) (int, string, []store.Record) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/replicate/wal?from="+strconv.FormatUint(from, 10), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var recs []store.Record
		if resp.StatusCode == http.StatusOK {
			rr := store.NewRecordReader(resp.Body)
			for len(recs) < want {
				rec, err := rr.Next()
				if err != nil {
					t.Fatalf("from %d: record %d: %v", from, len(recs)+1, err)
				}
				recs = append(recs, rec)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode, resp.Header.Get(headerSeq), recs
	}

	for _, from := range []uint64{4, 10} {
		if code, seq, _ := tail(from, 0); code != http.StatusGone || seq != "3" {
			t.Errorf("from %d ahead of primary seq 3: code %d, %s %q; want 410 and 3", from, code, headerSeq, seq)
		}
	}
	for _, from := range []uint64{0, 1, 3} {
		code, seq, recs := tail(from, int(3-from))
		if code != http.StatusOK || seq != "3" {
			t.Errorf("from %d: code %d, %s %q; want 200 and 3", from, code, headerSeq, seq)
			continue
		}
		for i, rec := range recs {
			if rec.Seq != from+uint64(i)+1 {
				t.Errorf("from %d: record %d has seq %d, want %d", from, i, rec.Seq, from+uint64(i)+1)
			}
		}
	}
}
