// Incremental churn API: POST /instances/{fp}/delta applies one batch of
// archive churn (adds, removals, new subsets) to a prepared instance of the
// asking tenant that is already resident — in the prepare cache, or
// recoverable from the snapshot store. The apply evolves the instance's
// fingerprint, so the pipeline rekeys the cache entry and replaces the
// persisted snapshot; the old fingerprint stops resolving, which is what
// keeps stale snapshots from ever being served. Session jobs (POST
// /jobs?kind=session&fp=...) run the same pipeline entry on the scheduler
// instead of the request path.
package main

import (
	"context"
	"fmt"
	"net/http"

	"phocus/internal/obs"
	"phocus/internal/phocus"
)

// deltaResponse is the wire format of an applied delta batch.
type deltaResponse struct {
	RequestID      string  `json:"request_id"`
	OldFingerprint string  `json:"old_fingerprint"`
	NewFingerprint string  `json:"new_fingerprint"`
	Added          int     `json:"added"`
	Removed        int     `json:"removed"`
	NewSubsets     int     `json:"new_subsets,omitempty"`
	Photos         int     `json:"photos"`
	Compacted      bool    `json:"compacted"`
	LiveFraction   float64 `json:"live_fraction"`
	ApplyMS        float64 `json:"apply_ms"`
	SizeBytes      int64   `json:"size_bytes"`
}

// handleDelta is POST /instances/{fp}/delta: admit the tenant, read the
// delta batch and apply it through the pipeline. 404 when the fingerprint
// names no prepared instance of the tenant: none is cached or on disk, or
// another tenant owns it (the two answers are the same, word for word); 400
// for a batch that does not decode or that the engine's validation rejects.
func (s *server) handleDelta(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !phocus.ValidFingerprint(fp) {
		http.Error(w, fmt.Sprintf("invalid fingerprint %q: want 64 hex characters", fp), http.StatusBadRequest)
		return
	}
	tenant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	// Apply decodes the batch into values of its own, so the buffer is
	// free again once it returns.
	body, err := readBody(w, r, s.maxBody, s.bufs.get(), nil)
	var stats *phocus.DeltaStats
	if err == nil {
		stats, err = s.pipe.Apply(r.Context(), tenant, fp, body)
		s.bufs.put(body)
	}
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, newDeltaResponse(r.Context(), stats))
}

// newDeltaResponse renders an applied batch in the wire format.
func newDeltaResponse(ctx context.Context, st *phocus.DeltaStats) *deltaResponse {
	return &deltaResponse{
		RequestID:      obs.RequestID(ctx),
		OldFingerprint: st.OldFingerprint,
		NewFingerprint: st.NewFingerprint,
		Added:          st.Added,
		Removed:        st.Removed,
		NewSubsets:     st.NewSubsets,
		Photos:         st.Photos,
		Compacted:      st.Compacted,
		LiveFraction:   st.LiveFraction,
		ApplyMS:        obs.DurMS(st.ApplyTime),
		SizeBytes:      st.SizeBytes,
	}
}
