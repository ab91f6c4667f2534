package server

// Replication endpoints and follower mode.
//
// A disk-backed primary exposes its store's replication surface over
// HTTP: GET /v1/replicate/snapshot streams an indexed v2 snapshot (the
// follower writes it straight into its data directory), and GET
// /v1/replicate/wal?from=SEQ streams every durable WAL record past the
// follower's applied watermark in the CRC-framed WAL wire format, then
// long-polls — the connection parks on the store's sequence watch and
// flushes new records as they commit, so a caught-up follower sees
// sub-second lag without polling. A follower that asks for records below
// the primary's compaction horizon, or from a watermark beyond the
// primary's own (its directory holds a history this primary never wrote),
// gets 410 Gone and must re-bootstrap from a fresh snapshot.
//
// A server constructed with Options.Replica serves the full read surface
// off the replicated store but refuses writes with 403 plus an
// X-Quagmire-Primary pointer, and reports replication status in /healthz.
// Every read starts from the store, so a follower serves each record as
// soon as the record is applied and its watermark advances. The replica
// client's hooks only manage engine memory: ApplyReplicated frees the
// engine a record supersedes, and ReloadReplicated empties the engine
// cache after a re-bootstrap.

import (
	"errors"
	"net/http"
	"strconv"

	"github.com/privacy-quagmire/quagmire/internal/store"
)

// headerSeq carries the primary's sequence watermark on replication
// responses; headerPrimary points a rejected writer at the primary.
const (
	headerSeq     = "X-Quagmire-Seq"
	headerPrimary = "X-Quagmire-Primary"
)

// walStreamBatch bounds how many records one ReplayFrom pass collects
// before the store lock is released and the batch is flushed to the
// network — a slow follower connection must never stall primary writes
// for the duration of a full WAL read.
const walStreamBatch = 256

// ReplicaOptions marks the server as a read-only follower.
type ReplicaOptions struct {
	// Primary is the primary's base URL, returned to rejected writers in
	// the X-Quagmire-Primary header.
	Primary string
	// Status, when non-nil, is rendered into /healthz as the "replica"
	// section (the replica client's lag/connection report).
	Status func() any
}

// handleReplicateSnapshot streams a bootstrap snapshot. The watermark
// header is written inside the store's read lock, before the first body
// byte, so header and stream always agree.
func (s *Server) handleReplicateSnapshot(rep store.Replicator) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, err := rep.SnapshotTo(w, func(seq uint64) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(headerSeq, strconv.FormatUint(seq, 10))
		})
		if err != nil {
			// Headers may be gone already; if not, surface the error properly.
			s.pipeline.Obs().Counter("quagmire_replicate_snapshot_errors_total").Inc()
			if rec, ok := w.(*statusRecorder); !ok || !rec.wrote {
				writeError(w, http.StatusInternalServerError, "snapshot stream failed: %v", err)
				return
			}
			if s.logger != nil {
				s.logger.Printf("replicate: snapshot stream aborted: %v", err)
			}
			return
		}
		s.pipeline.Obs().Counter("quagmire_replicate_snapshots_total").Inc()
	}
}

// handleReplicateWAL streams WAL records with seq > from, then long-polls
// for more until the client disconnects or the store closes. Records are
// collected in bounded batches under the store lock and framed onto the
// wire outside it. A from beyond the primary's watermark is refused with
// 410: the follower's history diverges from this primary's (its data
// directory was restored from an older backup or re-created), and
// shipping the primary's later records onto it would stack them on
// writes the primary never made.
func (s *Server) handleReplicateWAL(rep store.Replicator) http.HandlerFunc {
	errBatchFull := errors.New("batch full")
	return func(w http.ResponseWriter, r *http.Request) {
		from := uint64(0)
		if raw := r.URL.Query().Get("from"); raw != "" {
			n, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "invalid from %q (want a sequence number)", raw)
				return
			}
			from = n
		}
		if seq := rep.Seq(); from > seq {
			w.Header().Set(headerSeq, strconv.FormatUint(seq, 10))
			writeError(w, http.StatusGone,
				"watermark %d is ahead of this primary's seq %d; re-bootstrap from /v1/replicate/snapshot", from, seq)
			return
		}
		reg := s.pipeline.Obs()
		reg.Counter("quagmire_replicate_wal_streams_total").Inc()
		rc := http.NewResponseController(w)
		started := false
		start := func() {
			if !started {
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set(headerSeq, strconv.FormatUint(rep.Seq(), 10))
				w.WriteHeader(http.StatusOK)
				started = true
			}
		}
		batch := make([]store.Record, 0, walStreamBatch)
		for {
			batch = batch[:0]
			err := rep.ReplayFrom(from, func(rec store.Record) error {
				batch = append(batch, rec)
				if len(batch) >= walStreamBatch {
					return errBatchFull
				}
				return nil
			})
			full := errors.Is(err, errBatchFull)
			if err != nil && !full {
				switch {
				case errors.Is(err, store.ErrCompacted):
					if started {
						return // mid-stream compaction: end; the reconnect sees the 410
					}
					w.Header().Set(headerSeq, strconv.FormatUint(rep.Seq(), 10))
					writeError(w, http.StatusGone,
						"records after seq %d were compacted away; re-bootstrap from /v1/replicate/snapshot", from)
				case errors.Is(err, store.ErrClosed):
					if !started {
						writeError(w, http.StatusServiceUnavailable, "store closed")
					}
				default:
					reg.Counter("quagmire_replicate_wal_errors_total").Inc()
					if started {
						if s.logger != nil {
							s.logger.Printf("replicate: wal stream aborted: %v", err)
						}
						return
					}
					writeError(w, http.StatusInternalServerError, "wal replay failed: %v", err)
				}
				return
			}
			start()
			for _, rec := range batch {
				if werr := store.WriteRecord(w, rec); werr != nil {
					return // client gone; it will reconnect from its watermark
				}
				from = rec.Seq
			}
			if len(batch) > 0 {
				reg.Counter("quagmire_replicate_wal_records_total").Add(uint64(len(batch)))
			}
			// Flush even an empty first pass: a caught-up follower must see
			// the response headers immediately (it reports the open stream as
			// its "connected" state), not when the next record happens to
			// commit.
			_ = rc.Flush()
			if full {
				continue // more records already durable; skip the wait
			}
			if _, werr := rep.WaitSeq(r.Context(), from); werr != nil {
				return // client disconnected or store closed
			}
		}
	}
}

// writeGuard rejects mutation endpoints on a follower with 403 and the
// primary pointer. On a primary it is the identity.
func (s *Server) writeGuard(next http.HandlerFunc) http.HandlerFunc {
	if s.replica == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerPrimary, s.replica.Primary)
		writeError(w, http.StatusForbidden,
			"read-only replica: send writes to the primary at %s", s.replica.Primary)
	}
}

// ApplyReplicated frees the engine of the version one replicated record
// supersedes. Reads need nothing from it: the replica client calls it
// after ApplyRecord, which already made the record visible in the store.
func (s *Server) ApplyReplicated(rec store.Record) {
	s.engines.supersede(rec.ID, rec.Version.N)
}

// ReloadReplicated empties the engine cache. The follower calls it after
// a snapshot re-bootstrap replaced store state wholesale: a primary with a
// different history can store different bytes under the same (policy,
// version), so no engine built before it may serve after it. The error is
// always nil.
func (s *Server) ReloadReplicated() error {
	s.engines.reset()
	if s.logger != nil {
		s.logger.Printf("server: engine cache emptied after re-bootstrap")
	}
	return nil
}
