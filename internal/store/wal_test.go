package store

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// walBytesFor frames ops into an in-memory log.
func walBytesFor(t *testing.T, ops ...walOp) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, op := range ops {
		if _, err := appendWALRecord(&buf, op); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// flakyReader yields from data, then fails with err instead of EOF.
type flakyReader struct {
	data []byte
	err  error
}

func (r *flakyReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReplayWALSurfacesTransientReadErrors(t *testing.T) {
	// Regression: a non-EOF read error (a failing disk, not a torn write)
	// must abort the open as fatal, not masquerade as a corrupt tail that
	// recovery would respond to by truncating away valid records.
	log := walBytesFor(t,
		walOp{Seq: 1, Op: "create", ID: "p1", Name: "pol", Version: mkVersion("Acme", "v1")},
		walOp{Seq: 2, Op: "append", ID: "p1", Version: mkVersion("Acme", "v2")},
	)
	ioErr := errors.New("input/output error")
	for name, r := range map[string]io.Reader{
		// Error surfaces while reading a record payload.
		"mid-record": &flakyReader{data: log[:len(log)-4], err: ioErr},
		// Error surfaces at a clean record boundary (where EOF would be).
		"at-boundary": &flakyReader{data: log, err: ioErr},
	} {
		t.Run(name, func(t *testing.T) {
			_, _, corrupt, err := replayWAL(r, func(walOp, int64) error { return nil })
			_ = corrupt
			if !errors.Is(err, ioErr) {
				t.Fatalf("err = %v, want wrapped %v", err, ioErr)
			}
			if corrupt != nil {
				t.Errorf("transient read error reported as corrupt tail: %v", corrupt)
			}
		})
	}
}

func TestReplayWALTornTailStillTruncates(t *testing.T) {
	// The genuine torn-write cases keep their truncate-and-continue
	// semantics alongside the fatal-error path above.
	log := walBytesFor(t, walOp{Seq: 1, Op: "create", ID: "p1", Name: "pol", Version: mkVersion("Acme", "v1")})
	intact := int64(len(log))
	for name, tail := range map[string][]byte{
		"partial-header":  {0x01, 0x02},
		"partial-payload": {0xFF, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 'x'},
	} {
		t.Run(name, func(t *testing.T) {
			applied := 0
			offset, records, corrupt, err := replayWAL(bytes.NewReader(append(append([]byte{}, log...), tail...)),
				func(walOp, int64) error { applied++; return nil })
			if err != nil {
				t.Fatalf("torn tail must not be fatal: %v", err)
			}
			if corrupt == nil {
				t.Fatal("torn tail not reported")
			}
			if offset != intact || records != 1 || applied != 1 {
				t.Errorf("offset=%d records=%d applied=%d, want %d/1/1", offset, records, applied, intact)
			}
		})
	}
}
