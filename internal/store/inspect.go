package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// InspectPolicy is one policy's row in an Info report.
type InspectPolicy struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Versions     int    `json:"versions"`
	PayloadBytes int64  `json:"payload_bytes"`
}

// Info is a read-only report on a store data directory: snapshot format
// and watermark, WAL shape, and per-policy version/payload accounting.
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
	// WALRecords counts intact records; WALSeq is the last record's
	// sequence number (the durable watermark).
	WALRecords int    `json:"wal_records"`
	WALSeq     uint64 `json:"wal_seq"`
	WALBytes   int64  `json:"wal_bytes"`
	// WALCorrupt describes a torn or corrupt tail, empty for a clean log.
	// Inspection never truncates; recovery does that on the next open.
	WALCorrupt string          `json:"wal_corrupt,omitempty"`
	Policies   []InspectPolicy `json:"policies"`
}

// Inspect reads the snapshot index and scans the WAL of the data
// directory at dir, merging both into one report. dir must be an existing
// directory: inspection never creates one. A directory holding only a
// legacy v1 snapshot is refused with the same upgrade path OpenDisk names.
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

	if err := inspectWAL(dir, &info, byID); err != nil {
		return Info{}, err
	}

	for _, p := range byID {
		info.Policies = append(info.Policies, *p)
	}
	sort.Slice(info.Policies, func(i, j int) bool {
		var a, b int
		an, _ := fmt.Sscanf(info.Policies[i].ID, "p%d", &a)
		bn, _ := fmt.Sscanf(info.Policies[j].ID, "p%d", &b)
		if an == 1 && bn == 1 && a != b {
			return a < b
		}
		return info.Policies[i].ID < info.Policies[j].ID
	})
	return info, nil
}

func inspectWAL(dir string, info *Info, byID map[string]*InspectPolicy) error {
	f, err := os.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: open wal for inspection: %w", err)
	}
	defer f.Close()
	offset, _, corrupt, err := replayWAL(f, func(op Record, _ int64) error {
		info.WALRecords++
		info.WALSeq = op.Seq
		if op.Seq <= info.SnapshotSeq {
			// Already covered by the snapshot (interrupted compaction).
			return nil
		}
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
		return nil
	})
	if err != nil {
		return err
	}
	info.WALBytes = offset
	if corrupt != nil {
		info.WALCorrupt = corrupt.Error()
	}
	return nil
}
