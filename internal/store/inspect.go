package store

// InspectPolicy is one policy's row in an Info report.
type InspectPolicy struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Versions     int    `json:"versions"`
	PayloadBytes int64  `json:"payload_bytes"`
}

// Info is a read-only report on a store data directory: snapshot format
// and watermark, the shape of both WAL files, and per-policy
// version/payload accounting, all as recovery would find them.
// It is assembled from a read-only open, so it is safe to run against a
// directory another process is serving from — the first debugging stop
// for any recovery or replication question.
type Info struct {
	Dir string `json:"dir"`
	// SnapshotCodec is the snapshot format version: 2 for the indexed
	// format, 0 when the directory has no snapshot (WAL only).
	SnapshotCodec int    `json:"snapshot_codec"`
	SnapshotSeq   uint64 `json:"snapshot_seq"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	// WALRecords counts the live log's records recovery keeps; WALSeq is
	// the last one's sequence number (the durable watermark), WALBytes
	// their size.
	WALRecords int    `json:"wal_records"`
	WALSeq     uint64 `json:"wal_seq"`
	WALBytes   int64  `json:"wal_bytes"`
	// WALCorrupt describes the corrupt record or sequence gap that ends the
	// log, empty for a clean one. Inspection never truncates; OpenDisk
	// does that on the next open.
	WALCorrupt string `json:"wal_corrupt,omitempty"`
	// The Retained fields describe the retained WAL generation, the live
	// log as the last compaction rotated it out: the records recovery
	// keeps, their first and last sequence numbers and their size. All
	// zero when the directory has none.
	RetainedRecords  int    `json:"retained_records"`
	RetainedFirstSeq uint64 `json:"retained_first_seq"`
	RetainedSeq      uint64 `json:"retained_seq"`
	RetainedBytes    int64  `json:"retained_bytes"`
	RetainedCorrupt  string `json:"retained_corrupt,omitempty"`
	// Policies are the policies recovery restores from the snapshot and
	// both logs.
	Policies []InspectPolicy `json:"policies"`
}

// Inspect opens the data directory at dir read-only and reports what
// recovery keeps: the snapshot, each WAL file's records up to the first
// corrupt record or sequence gap, and the policies they hold. dir must be
// an existing directory: inspection never creates one. A directory holding
// only a legacy v1 snapshot is refused with the same upgrade path OpenDisk
// names.
func Inspect(dir string) (Info, error) {
	d, err := OpenReadOnly(dir, Options{})
	if err != nil {
		return Info{}, err
	}
	defer d.Close()
	info := Info{Dir: dir, SnapshotSeq: d.snapSeq}
	if sf := d.snapFile; sf != nil {
		info.SnapshotCodec = sf.hdr.Codec
		if fi, err := sf.f.Stat(); err == nil {
			info.SnapshotBytes = fi.Size()
		}
	}
	r := &d.retained
	info.RetainedRecords, info.RetainedBytes, info.RetainedCorrupt = len(r.index), r.size, r.torn
	if n := len(r.index); n > 0 {
		info.RetainedFirstSeq, info.RetainedSeq = r.index[0].seq, r.index[n-1].seq
	}
	l := &d.live
	info.WALRecords, info.WALBytes, info.WALCorrupt = len(l.index), l.size, l.torn
	if n := len(l.index); n > 0 {
		info.WALSeq = l.index[n-1].seq
	}
	for _, p := range d.c.list() {
		row := InspectPolicy{ID: p.ID, Name: p.Name, Versions: p.Versions}
		for _, v := range d.c.policies[p.ID].Versions {
			row.PayloadBytes += int64(v.Bytes)
		}
		info.Policies = append(info.Policies, row)
	}
	return info, nil
}
