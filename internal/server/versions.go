package server

// Version-history endpoints. These read the store directly, like every
// other read — version metadata and payloads are immutable once written:
// a version that exists never changes.

import (
	"errors"
	"net/http"
	"strconv"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/extract"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// storeError maps store failures onto the JSON error envelope.
func storeError(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrNotFound) {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "store read failed: %v", err)
}

// handleVersions serves GET /v1/policies/{id}/versions: the policy's full
// version-metadata history in order — creation times, graph shape and
// per-version diff stats, without the payloads.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	metas, err := s.store.Versions(r.PathValue("id"))
	if err != nil {
		storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, metas)
}

// handleVersion serves GET /v1/policies/{id}/versions/{n}: one stored
// version's metadata (1-based).
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 1 {
		writeError(w, http.StatusBadRequest, "invalid version %q", r.PathValue("n"))
		return
	}
	v, err := s.store.Version(r.PathValue("id"), n)
	if err != nil {
		storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v.VersionMeta)
}

// diffResponse is the GET /v1/policies/{id}/diff payload: the semantic
// difference between two stored versions at practice granularity.
type diffResponse struct {
	From int `json:"from"`
	To   int `json:"to"`
	extract.VersionReport
}

// handleDiff serves GET /v1/policies/{id}/diff?from=N&to=M: both versions'
// extractions are decoded from the store and compared practice-by-practice
// (added, removed, permission flips, condition changes) — the cross-version
// contradictions a diff of raw text cannot see.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	parse := func(key string) (int, bool) {
		raw := r.URL.Query().Get(key)
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid %s version %q", key, raw)
			return 0, false
		}
		return n, true
	}
	from, ok := parse("from")
	if !ok {
		return
	}
	to, ok := parse("to")
	if !ok {
		return
	}
	pFrom, err := s.store.LoadPayload(id, from)
	if err != nil {
		storeError(w, err)
		return
	}
	pTo, err := s.store.LoadPayload(id, to)
	if err != nil {
		storeError(w, err)
		return
	}
	exFrom, err := core.DecodeExtraction(pFrom)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "decode version %d: %v", from, err)
		return
	}
	exTo, err := core.DecodeExtraction(pTo)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "decode version %d: %v", to, err)
		return
	}
	writeJSON(w, http.StatusOK, diffResponse{
		From:          from,
		To:            to,
		VersionReport: extract.CompareVersions(exFrom, exTo),
	})
}
