package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// WAL record framing: each record is [uint32 length][uint32 CRC32-C of
// payload][payload JSON], little-endian. A record is valid only if the
// full frame is present and the checksum matches — a torn write at the
// tail (partial header, short payload, or checksum mismatch) marks the
// end of the usable log and everything from there on is truncated.

const walHeaderSize = 8

// maxWALRecord bounds one record so a corrupted length field cannot force
// a multi-gigabyte allocation during replay.
const maxWALRecord = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walOp is one logged mutation — the exported Record type (replicate.go),
// which doubles as the replication shipping unit.
type walOp = Record

// appendWALRecord frames and writes one record to w.
func appendWALRecord(w io.Writer, op walOp) (int, error) {
	payload, err := json.Marshal(op)
	if err != nil {
		return 0, fmt.Errorf("store: encode wal record: %w", err)
	}
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("store: write wal header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return 0, fmt.Errorf("store: write wal payload: %w", err)
	}
	return walHeaderSize + len(payload), nil
}

// errCorruptTail marks the point past which the log is unusable; the
// wrapped detail says why.
type corruptTailError struct {
	offset int64
	reason string
}

func (e *corruptTailError) Error() string {
	return fmt.Sprintf("store: corrupt wal record at offset %d: %s", e.offset, e.reason)
}

// replayWAL reads records from r, invoking apply for each with the byte
// offset, relative to the start of r, at which the record's frame begins.
// It returns the byte offset of the last intact record boundary, the
// record count, and a *corruptTailError (nil for a clean log). Apply
// errors abort the replay, except a *corruptTailError, with which apply
// declares the log unusable from its record on.
//
// Only a genuinely torn tail (unexpected EOF, bad length, bad checksum,
// undecodable payload) is reported as corruption; any other read error is
// returned as a fatal error instead, so a transient I/O failure never
// causes the caller to truncate away valid records.
func replayWAL(r io.Reader, apply func(op walOp, off int64) error) (offset int64, records int, corrupt *corruptTailError, err error) {
	br := newByteCounter(r)
	for {
		var hdr [walHeaderSize]byte
		if _, rerr := io.ReadFull(br, hdr[:]); rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return offset, records, nil, nil
			}
			if errors.Is(rerr, io.ErrUnexpectedEOF) {
				return offset, records, &corruptTailError{offset, "partial header"}, nil
			}
			return offset, records, nil, fmt.Errorf("store: read wal at offset %d: %w", offset, rerr)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxWALRecord {
			return offset, records, &corruptTailError{offset, fmt.Sprintf("implausible record length %d", length)}, nil
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(br, payload); rerr != nil {
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
				return offset, records, &corruptTailError{offset, "partial payload"}, nil
			}
			return offset, records, nil, fmt.Errorf("store: read wal at offset %d: %w", offset, rerr)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return offset, records, &corruptTailError{offset, "checksum mismatch"}, nil
		}
		var op walOp
		if jerr := json.Unmarshal(payload, &op); jerr != nil {
			return offset, records, &corruptTailError{offset, "undecodable payload"}, nil
		}
		if aerr := apply(op, offset); aerr != nil {
			var ce *corruptTailError
			if errors.As(aerr, &ce) {
				return offset, records, ce, nil
			}
			return offset, records, nil, fmt.Errorf("store: replay wal record %d: %w", records, aerr)
		}
		offset = br.n
		records++
	}
}

// byteCounter tracks how many bytes were consumed from the reader.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// truncateWAL cuts the log file at offset, discarding the corrupt tail.
func truncateWAL(path string, offset int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: open wal for truncation: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(offset); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	return f.Sync()
}
