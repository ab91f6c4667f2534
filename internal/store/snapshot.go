package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Snapshot format v2: an indexed, seekable layout that lets recovery load
// every policy's metadata without touching a single payload byte.
//
//	[8]  magic "QSNAPv2\0"
//	     block: header JSON {codec, seq, next_id}
//	     payload sections, one per stored version, raw bytes back to back
//	     block: index JSON (policy metadata + per-version offset/len/CRC)
//	[16] footer: uint64 index block offset + magic "QSNAPix\0"
//
// A "block" is [uint32 length][uint32 CRC32-C][bytes], little-endian — the
// same framing the WAL uses. Payload sections carry no inline framing;
// their offset, length and CRC live in the index, which is itself
// CRC-protected, so every byte of the file is covered by a checksum.
// Opening a snapshot reads the magic, header, footer and index — O(index),
// independent of total payload bytes — and keeps the file handle for
// ReadAt-based lazy payload loads.

const (
	// snapshotV2Name is the indexed snapshot's filename inside the data dir.
	snapshotV2Name = "snapshot.v2"
	// snapshotCodecV2 is the current snapshot schema version.
	snapshotCodecV2 = 2
	// snapBlockHeader is the [len][crc] prefix of a framed block.
	snapBlockHeader = 8
	// snapFooterSize is the trailing [index offset][magic] record.
	snapFooterSize = 16
	// maxSnapBlock bounds the header and index blocks so a corrupted
	// length field cannot force a huge allocation.
	maxSnapBlock = 1 << 30
)

var (
	snapMagic       = [8]byte{'Q', 'S', 'N', 'A', 'P', 'v', '2', 0}
	snapFooterMagic = [8]byte{'Q', 'S', 'N', 'A', 'P', 'i', 'x', 0}
)

// snapHeader is the eagerly-read head of a v2 snapshot. Seq is the WAL
// watermark the snapshot was taken at: replay skips records at or below
// it, so the WAL files a snapshot covers (the retained generation, or
// logs a crashed compaction left) replay cleanly.
type snapHeader struct {
	Codec  int    `json:"codec"`
	Seq    uint64 `json:"seq"`
	NextID int    `json:"next_id"`
}

// payloadRef locates one version's payload section inside the snapshot.
type payloadRef struct {
	off int64
	n   uint32
	crc uint32
}

// snapVersion is one version's index row: full metadata plus the payload
// section location.
type snapVersion struct {
	VersionMeta
	Off int64  `json:"off"`
	Len uint32 `json:"len"`
	CRC uint32 `json:"crc"`
}

// snapPolicy is one policy's index entry.
type snapPolicy struct {
	Meta     Policy        `json:"meta"`
	Versions []snapVersion `json:"versions"`
}

// snapIndex is the trailing index block.
type snapIndex struct {
	Policies []snapPolicy `json:"policies"`
}

// writeBlock frames data as [len][crc][bytes] and returns bytes written.
func writeBlock(w io.Writer, data []byte) (int64, error) {
	var hdr [snapBlockHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(data, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(data); err != nil {
		return 0, err
	}
	return int64(snapBlockHeader + len(data)), nil
}

// writeSnapshotV2 streams a v2 snapshot of the given policies (already in
// canonical order) to w. load materializes each version's payload bytes —
// inline for WAL-resident versions, a snapshot read for ref'd ones — which
// need stay valid only until the next load. The
// returned index records where every payload section landed, so a caller
// writing to a real file can re-point in-memory refs at the new offsets.
func writeSnapshotV2(w io.Writer, hdr snapHeader, policies []*policyState, load func(id string, v *Version) ([]byte, error)) (snapIndex, error) {
	var off int64
	n, err := w.Write(snapMagic[:])
	if err != nil {
		return snapIndex{}, fmt.Errorf("store: write snapshot magic: %w", err)
	}
	off += int64(n)
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return snapIndex{}, fmt.Errorf("store: encode snapshot header: %w", err)
	}
	bn, err := writeBlock(w, hdrJSON)
	if err != nil {
		return snapIndex{}, fmt.Errorf("store: write snapshot header: %w", err)
	}
	off += bn
	idx := snapIndex{Policies: make([]snapPolicy, 0, len(policies))}
	for _, st := range policies {
		sp := snapPolicy{Meta: st.Meta, Versions: make([]snapVersion, 0, len(st.Versions))}
		for i := range st.Versions {
			v := &st.Versions[i]
			payload, err := load(st.Meta.ID, v)
			if err != nil {
				return snapIndex{}, fmt.Errorf("store: snapshot payload %s/v%d: %w", st.Meta.ID, v.N, err)
			}
			if _, err := w.Write(payload); err != nil {
				return snapIndex{}, fmt.Errorf("store: write snapshot payload: %w", err)
			}
			sp.Versions = append(sp.Versions, snapVersion{
				VersionMeta: v.VersionMeta,
				Off:         off,
				Len:         uint32(len(payload)),
				CRC:         crc32.Checksum(payload, crcTable),
			})
			off += int64(len(payload))
		}
		idx.Policies = append(idx.Policies, sp)
	}
	idxJSON, err := json.Marshal(idx)
	if err != nil {
		return snapIndex{}, fmt.Errorf("store: encode snapshot index: %w", err)
	}
	indexOff := off
	if _, err := writeBlock(w, idxJSON); err != nil {
		return snapIndex{}, fmt.Errorf("store: write snapshot index: %w", err)
	}
	var footer [snapFooterSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	copy(footer[8:], snapFooterMagic[:])
	if _, err := w.Write(footer[:]); err != nil {
		return snapIndex{}, fmt.Errorf("store: write snapshot footer: %w", err)
	}
	return idx, nil
}

// snapshotFile is an open v2 snapshot: the parsed header and index plus
// the file handle payload loads ReadAt from.
type snapshotFile struct {
	f   *os.File
	hdr snapHeader
	idx snapIndex
}

// openSnapshotV2 opens and validates the v2 snapshot at path. A missing
// file surfaces as fs.ErrNotExist so callers can tell a directory without
// a snapshot from one with a damaged snapshot.
func openSnapshotV2(path string) (*snapshotFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sf, err := readSnapshotV2(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return sf, nil
}

// readBlockAt reads and CRC-verifies one framed block at off.
func readBlockAt(f *os.File, off, fileSize int64, what string) ([]byte, error) {
	var hdr [snapBlockHeader]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("read %s header: %w", what, err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(length) > maxSnapBlock || off+snapBlockHeader+int64(length) > fileSize {
		return nil, fmt.Errorf("implausible %s length %d", what, length)
	}
	data := make([]byte, length)
	if _, err := f.ReadAt(data, off+snapBlockHeader); err != nil {
		return nil, fmt.Errorf("read %s: %w", what, err)
	}
	if crc32.Checksum(data, crcTable) != sum {
		return nil, fmt.Errorf("%s checksum mismatch", what)
	}
	return data, nil
}

func readSnapshotV2(f *os.File) (*snapshotFile, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(snapMagic))+2*snapBlockHeader+snapFooterSize {
		return nil, fmt.Errorf("truncated: %d bytes", size)
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("read magic: %w", err)
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("bad magic %q", magic[:])
	}
	hdrJSON, err := readBlockAt(f, int64(len(snapMagic)), size, "header")
	if err != nil {
		return nil, err
	}
	var hdr snapHeader
	if err := json.Unmarshal(hdrJSON, &hdr); err != nil {
		return nil, fmt.Errorf("decode header: %w", err)
	}
	if hdr.Codec > snapshotCodecV2 {
		return nil, fmt.Errorf("codec %d is newer than supported %d", hdr.Codec, snapshotCodecV2)
	}
	if hdr.Codec < snapshotCodecV2 {
		return nil, fmt.Errorf("unexpected codec %d in indexed snapshot", hdr.Codec)
	}
	var footer [snapFooterSize]byte
	if _, err := f.ReadAt(footer[:], size-snapFooterSize); err != nil {
		return nil, fmt.Errorf("read footer: %w", err)
	}
	if [8]byte(footer[8:16]) != snapFooterMagic {
		return nil, fmt.Errorf("bad footer magic %q", footer[8:16])
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	if indexOff < int64(len(snapMagic))+snapBlockHeader || indexOff >= size-snapFooterSize {
		return nil, fmt.Errorf("implausible index offset %d", indexOff)
	}
	idxJSON, err := readBlockAt(f, indexOff, size, "index")
	if err != nil {
		return nil, err
	}
	var idx snapIndex
	if err := json.Unmarshal(idxJSON, &idx); err != nil {
		return nil, fmt.Errorf("decode index: %w", err)
	}
	for _, sp := range idx.Policies {
		for _, sv := range sp.Versions {
			if sv.Off < 0 || sv.Off+int64(sv.Len) > indexOff {
				return nil, fmt.Errorf("payload section %s/v%d out of bounds", sp.Meta.ID, sv.N)
			}
		}
	}
	return &snapshotFile{f: f, hdr: hdr, idx: idx}, nil
}

// load reads and CRC-verifies one payload section into buf, which holds
// exactly ref.n bytes.
func (sf *snapshotFile) load(buf []byte, ref payloadRef) ([]byte, error) {
	if _, err := sf.f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("read payload section at %d: %w", ref.off, err)
	}
	if crc32.Checksum(buf, crcTable) != ref.crc {
		return nil, fmt.Errorf("payload section at %d: checksum mismatch", ref.off)
	}
	return buf, nil
}

func (sf *snapshotFile) Close() error { return sf.f.Close() }

// saveSnapshotV2 writes a v2 snapshot durably and atomically into dir
// (temp file, fsync, rename, directory fsync) and reopens it for reading.
// written, when non-nil, runs once the temp file is complete and synced,
// before the rename. A WAL file is deleted only once a snapshot covering
// its records is saved, so a snapshot living only in the page cache would
// mean losing both.
func saveSnapshotV2(dir string, hdr snapHeader, policies []*policyState, load func(id string, v *Version) ([]byte, error), written func()) (*snapshotFile, snapIndex, error) {
	path := filepath.Join(dir, snapshotV2Name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, snapIndex{}, fmt.Errorf("store: write snapshot: %w", err)
	}
	idx, werr := writeSnapshotV2(f, hdr, policies, load)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return nil, snapIndex{}, werr
	}
	if written != nil {
		written()
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, snapIndex{}, fmt.Errorf("store: commit snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return nil, snapIndex{}, err
	}
	sf, err := openSnapshotV2(path)
	if err != nil {
		return nil, snapIndex{}, fmt.Errorf("store: reopen snapshot: %w", err)
	}
	return sf, idx, nil
}

// syncDir fsyncs dir so a just-renamed snapshot survives a host crash.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
