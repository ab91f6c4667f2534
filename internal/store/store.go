// Package store is the durable policy registry behind the server: policies
// are stored by server-assigned ID with full version history (each version
// carries the encoded analysis payload plus graph and diff statistics), so
// restarts, audits and longitudinal comparisons all read the same record
// of what each policy said at every point in time.
//
// Two backends implement PolicyStore: NewMem is a process-local map for
// tests and cacheless deployments, and OpenDisk adds durability through an
// append-only record log (WAL) with CRC-checked framing and background
// snapshot compaction — every mutation is logged before it is applied,
// recovery replays the snapshot plus the log, and a corrupted log tail is
// truncated at the last intact record instead of poisoning the whole
// store.
package store

import (
	"errors"
	"log"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/obs"
)

// Store errors. Backends wrap these so callers can errors.Is-match them.
var (
	// ErrNotFound reports a missing policy ID or version number.
	ErrNotFound = errors.New("store: not found")
	// ErrConflict reports a failed compare-and-swap: the policy advanced
	// past the version the caller computed its update against.
	ErrConflict = errors.New("store: version conflict")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
)

// VersionStats summarizes the knowledge graph of one stored version.
type VersionStats struct {
	Nodes     int `json:"nodes"`
	Edges     int `json:"edges"`
	Entities  int `json:"entities"`
	DataTypes int `json:"data_types"`
	Segments  int `json:"segments"`
	Practices int `json:"practices"`
}

// DiffStats records what changed relative to the previous version; zero
// for version 1.
type DiffStats struct {
	SegmentsKept    int `json:"segments_kept"`
	SegmentsAdded   int `json:"segments_added"`
	SegmentsRemoved int `json:"segments_removed"`
	EdgesAdded      int `json:"edges_added"`
	EdgesRemoved    int `json:"edges_removed"`
	NewTerms        int `json:"new_terms"`
}

// VersionMeta is the metadata row of one stored version.
type VersionMeta struct {
	// N is the 1-based version number within the policy.
	N int `json:"n"`
	// Created is when the version was stored.
	Created time.Time `json:"created"`
	// Company is the organization name extracted at this version (it can
	// change across versions; the policy metadata tracks the latest).
	Company string `json:"company"`
	// Stats and Diff pin the version's analysis shape for audits without
	// decoding the payload.
	Stats VersionStats `json:"stats"`
	Diff  DiffStats    `json:"diff"`
	// Bytes is the encoded payload size.
	Bytes int `json:"bytes"`
	// SourceHash is the hex SHA-256 of the raw source document this
	// version was analyzed from (set by the ingest pipeline); empty for
	// versions stored through other paths. Incremental re-ingest compares
	// it to decide whether a file changed since the last crawl.
	SourceHash string `json:"source_hash,omitempty"`
}

// Version is a full stored version: metadata plus the encoded analysis
// payload. The payload is opaque to the store — the core package's codec
// owns its format (and its schema versioning).
//
// Payload is populated only on the write path (Create/Append/AppendBatch
// and WAL records). On the read path the store keeps payloads lazily
// materialized: Version(id, n) returns metadata with a nil Payload, and
// LoadPayload(id, n) is the sole payload accessor — on the disk backend it
// reads the bytes straight out of the indexed snapshot on first use.
type Version struct {
	VersionMeta
	Payload []byte `json:"payload"`
	// ref locates the payload inside the open v2 snapshot when the bytes
	// are not held inline; nil means Payload is authoritative. Unexported,
	// so it never leaks into WAL records or snapshot JSON.
	ref *payloadRef
}

// Policy is the policy-level metadata snapshot.
type Policy struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Company  string    `json:"company"`
	Created  time.Time `json:"created"`
	Updated  time.Time `json:"updated"`
	Versions int       `json:"versions"`
}

// Health reports a backend's state for the health endpoint.
type Health struct {
	// Backend is "memory" or "disk".
	Backend string `json:"backend"`
	// Policies and Versions count stored records.
	Policies int `json:"policies"`
	Versions int `json:"versions"`
	// WALBytes is the current record-log size: the live log plus the
	// retained generation (disk only).
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// Writable reports the disk-writability probe (always true for the
	// memory backend).
	Writable bool `json:"writable"`
	// Detail explains a degraded state.
	Detail string `json:"detail,omitempty"`
}

// OK reports whether the backend is fully serviceable.
func (h Health) OK() bool { return h.Writable }

// BatchEntry is one policy creation inside an AppendBatch: a name (the
// ingest pipeline uses the corpus-relative source path, which is what
// makes an interrupted crawl resumable) plus its version-1 payload.
type BatchEntry struct {
	Name    string
	Version Version
}

// PolicyStore is the durable policy registry. Implementations are safe
// for concurrent use. Returned metadata and payloads are snapshots; the
// caller must not mutate Version.Payload after handing it to the store.
type PolicyStore interface {
	// Create stores a new policy with v as version 1 and returns its
	// metadata with the assigned ID. v.N and v.Created are set by the
	// store; name defaults to v.Company when empty.
	Create(name string, v Version) (Policy, error)
	// AppendBatch stores every entry as a new policy (each becomes
	// version 1) in one durable write: the disk backend frames all the
	// WAL records and fsyncs once for the whole batch, so bulk ingestion
	// pays one sync per batch instead of one per policy. The batch is
	// atomic — either every entry is durable and applied or none is —
	// and assigned IDs follow entry order.
	AppendBatch(entries []BatchEntry) ([]Policy, error)
	// Append stores v as the next version of policy id if and only if the
	// policy currently has expect versions (compare-and-swap); otherwise
	// it fails with ErrConflict and stores nothing.
	Append(id string, expect int, v Version) (Policy, error)
	// Get returns the policy metadata.
	Get(id string) (Policy, error)
	// List returns all policies sorted by ID.
	List() ([]Policy, error)
	// Versions returns the policy's version metadata in order.
	Versions(id string) ([]VersionMeta, error)
	// Version returns one stored version's metadata (1-based). The
	// returned Payload is always nil; use LoadPayload for the bytes.
	Version(id string, n int) (Version, error)
	// LoadPayload materializes the encoded payload of version n of policy
	// id. The memory backend returns its in-process copy; the disk backend
	// reads the section out of the indexed snapshot (CRC-verified) unless
	// the version is still WAL-resident. Callers must not mutate the
	// returned slice.
	LoadPayload(id string, n int) ([]byte, error)
	// Health reports backend state.
	Health() Health
	// Close releases resources; the disk backend snapshots first so the
	// next open replays no log.
	Close() error
}

// Options configures a backend. The zero value is usable: no logging, a
// no-op metrics registry, time.Now, and disk defaults.
type Options struct {
	// Logger receives recovery and corruption warnings; nil disables.
	Logger *log.Logger
	// Obs receives store metrics (op counters, latency histograms, WAL
	// bytes gauge, recovery duration); nil disables.
	Obs *obs.Registry
	// Clock stamps version creation times; nil selects time.Now.
	Clock func() time.Time
	// SnapshotThreshold compacts the WAL into a snapshot, in the
	// background, when the live log exceeds this many bytes (disk only);
	// 0 selects 4 MiB, negative disables automatic compaction.
	SnapshotThreshold int64
}

func (o Options) clock() func() time.Time {
	if o.Clock != nil {
		return o.Clock
	}
	return time.Now
}

func (o Options) logf(format string, args ...any) {
	if o.Logger != nil {
		o.Logger.Printf(format, args...)
	}
}

// observe records one store operation on the metrics registry (nil-safe).
func (o Options) observe(op string, start time.Time) {
	o.Obs.Counter("quagmire_store_ops_total", "op", op).Inc()
	o.Obs.Histogram("quagmire_store_op_seconds", obs.TimeBuckets, "op", op).ObserveSince(start)
}
