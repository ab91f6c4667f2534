package server

import (
	"fmt"
	"net/http"

	"github.com/privacy-quagmire/quagmire/internal/scenario"
)

// checkRequest is the POST /v1/policies/{id}/check body: a scenario suite
// in the compliance-as-code DSL, executed against the policy in the URL.
type checkRequest struct {
	// Suite is the .qq suite source. Its `policy` declaration, if any, is
	// ignored — the URL names the policy under check.
	Suite string `json:"suite"`
	// Version selects a stored version (0 = the latest).
	Version int `json:"version,omitempty"`
	// Format selects the response rendering: "json" (default) or "junit".
	Format string `json:"format,omitempty"`
}

// checkResponse wraps the scenario report with the policy coordinates it
// ran against.
type checkResponse struct {
	PolicyID string          `json:"policy_id"`
	Version  int             `json:"version"`
	Report   scenario.Report `json:"report"`
}

// handleCheck executes a compliance-as-code scenario suite against a
// stored policy. The response always carries HTTP 200 with the full
// report — a failing scenario is a result, not a transport error; CI
// gating on the verdicts is the CLI's job. A pinned version resolves
// through the same engine cache as the latest one, so repeated pinned
// checks pay one decode per (policy, version), and a check pinned to a
// healthy version never builds, or answers for, any other.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	meta, ok := s.lookupMeta(w, r)
	if !ok {
		return
	}
	var req checkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Suite == "" {
		writeError(w, http.StatusBadRequest, "suite is required")
		return
	}
	if req.Format != "" && req.Format != "json" && req.Format != "junit" {
		writeError(w, http.StatusBadRequest, "unknown format %q (json|junit)", req.Format)
		return
	}
	parsed, err := scenario.Parse("request.qq", req.Suite)
	if err != nil {
		writeError(w, http.StatusBadRequest, "suite parse: %v", err)
		return
	}
	cs, err := scenario.Compile(parsed)
	if err != nil {
		writeError(w, http.StatusBadRequest, "suite compile: %v", err)
		return
	}

	version, source := req.Version, "version"
	if version == 0 || version == meta.Versions {
		version, source = meta.Versions, "query"
	}
	if version < 1 || version > meta.Versions {
		writeError(w, http.StatusNotFound, "policy %q has no version %d", meta.ID, version)
		return
	}
	a, err := s.engine(meta, version, source)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	res, err := scenario.Execute(r.Context(), a.Engine, cs, scenario.ExecOptions{
		Obs:    s.pipeline.Obs(),
		Policy: fmt.Sprintf("store:%s@%d", meta.ID, version),
	})
	if err != nil {
		s.writeComputeError(w, r, "scenario execution failed", err)
		return
	}
	results := []*scenario.SuiteResult{res}
	if req.Format == "junit" {
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := scenario.WriteJUnit(w, results); err != nil && s.logger != nil {
			s.logger.Printf("server: junit render: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, checkResponse{
		PolicyID: meta.ID,
		Version:  version,
		Report:   scenario.NewReport(results),
	})
}
