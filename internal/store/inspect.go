package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// InspectPolicy is one policy's row in an Info report.
type InspectPolicy struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Versions     int    `json:"versions"`
	PayloadBytes int64  `json:"payload_bytes"`
}

// Info is a read-only report on a store data directory: snapshot format
// and watermark, the shape of both WAL files, and per-policy
// version/payload accounting.
// It is assembled without opening the store for writing, so it is safe to
// run against a directory another process is serving from — the first
// debugging stop for any recovery or replication question.
type Info struct {
	Dir string `json:"dir"`
	// SnapshotCodec is the snapshot format version: 2 for the indexed
	// format, 0 when the directory has no snapshot (WAL only).
	SnapshotCodec int    `json:"snapshot_codec"`
	SnapshotSeq   uint64 `json:"snapshot_seq"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	// WALRecords counts the live log's intact records; WALSeq is the last
	// record's sequence number (the durable watermark).
	WALRecords int    `json:"wal_records"`
	WALSeq     uint64 `json:"wal_seq"`
	WALBytes   int64  `json:"wal_bytes"`
	// WALCorrupt describes a torn or corrupt tail, empty for a clean log.
	// Inspection never truncates; recovery does that on the next open.
	WALCorrupt string `json:"wal_corrupt,omitempty"`
	// The Retained fields describe the retained WAL generation, the live
	// log as the last compaction rotated it out: its intact records, their
	// first and last sequence numbers, and its size. All zero when the
	// directory has none.
	RetainedRecords  int    `json:"retained_records"`
	RetainedFirstSeq uint64 `json:"retained_first_seq"`
	RetainedSeq      uint64 `json:"retained_seq"`
	RetainedBytes    int64  `json:"retained_bytes"`
	RetainedCorrupt  string `json:"retained_corrupt,omitempty"`
	// Policies is the census of snapshot plus both logs, each record
	// counted once.
	Policies []InspectPolicy `json:"policies"`
}

// Inspect reads the snapshot index and scans the retained WAL generation
// and the live log of the data directory at dir, merging them into one
// report. dir must be an existing directory: inspection never creates
// one. A directory holding only a legacy v1 snapshot is refused with the
// same upgrade path OpenDisk names.
func Inspect(dir string) (Info, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return Info{}, fmt.Errorf("store: inspect: %w", err)
	}
	if !fi.IsDir() {
		return Info{}, fmt.Errorf("store: inspect: %s is not a directory", dir)
	}
	info := Info{Dir: dir}
	byID := map[string]*InspectPolicy{}

	sf, err := openSnapshotV2(filepath.Join(dir, snapshotV2Name))
	switch {
	case err == nil:
		defer sf.Close()
		info.SnapshotCodec = sf.hdr.Codec
		info.SnapshotSeq = sf.hdr.Seq
		if fi, serr := sf.f.Stat(); serr == nil {
			info.SnapshotBytes = fi.Size()
		}
		for _, sp := range sf.idx.Policies {
			p := &InspectPolicy{ID: sp.Meta.ID, Name: sp.Meta.Name, Versions: len(sp.Versions)}
			for _, sv := range sp.Versions {
				p.PayloadBytes += int64(sv.Len)
			}
			byID[p.ID] = p
		}
	case errors.Is(err, fs.ErrNotExist):
		if lerr := checkNotLegacyV1(dir); lerr != nil {
			return Info{}, lerr
		}
	default:
		return Info{}, err
	}

	// Records at or below the watermark are already counted: the snapshot
	// holds them, or the retained generation did.
	watermark := info.SnapshotSeq
	census := func(op Record) {
		if op.Seq <= watermark {
			return
		}
		watermark = op.Seq
		switch op.Op {
		case "create":
			byID[op.ID] = &InspectPolicy{
				ID: op.ID, Name: op.Name, Versions: 1,
				PayloadBytes: int64(len(op.Version.Payload)),
			}
		case "append":
			if p, ok := byID[op.ID]; ok {
				p.Versions++
				p.PayloadBytes += int64(len(op.Version.Payload))
			}
		}
	}
	retained, err := inspectWAL(filepath.Join(dir, retainedWALName), census)
	if err != nil {
		return Info{}, err
	}
	info.RetainedRecords, info.RetainedFirstSeq, info.RetainedSeq = retained.records, retained.first, retained.last
	info.RetainedBytes, info.RetainedCorrupt = retained.bytes, retained.corrupt
	live, err := inspectWAL(filepath.Join(dir, walName), census)
	if err != nil {
		return Info{}, err
	}
	info.WALRecords, info.WALSeq, info.WALBytes, info.WALCorrupt = live.records, live.last, live.bytes, live.corrupt

	for _, p := range byID {
		info.Policies = append(info.Policies, *p)
	}
	sortByID(info.Policies, func(p InspectPolicy) string { return p.ID })
	return info, nil
}

// walReport is one WAL file's shape: intact records, their first and
// last sequence numbers, the intact prefix's size and any corrupt tail.
type walReport struct {
	records     int
	first, last uint64
	bytes       int64
	corrupt     string
}

// inspectWAL scans the WAL file at path, passing each intact record to
// census. A missing file reports as empty.
func inspectWAL(path string, census func(Record)) (walReport, error) {
	var r walReport
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return r, nil
		}
		return r, fmt.Errorf("store: open %s for inspection: %w", filepath.Base(path), err)
	}
	defer f.Close()
	offset, _, corrupt, err := replayWAL(f, func(op Record, _ int64) error {
		if r.records == 0 {
			r.first = op.Seq
		}
		r.records++
		r.last = op.Seq
		census(op)
		return nil
	})
	if err != nil {
		return r, err
	}
	r.bytes = offset
	if corrupt != nil {
		r.corrupt = corrupt.Error()
	}
	return r, nil
}
