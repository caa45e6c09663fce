// Incremental churn API: POST /instances/{fp}/delta applies one batch of
// archive churn (adds, removals, new subsets) to a prepared instance that is
// already resident — in the prepare cache, or recoverable from the snapshot
// store. The apply evolves the instance's fingerprint, so the handler rekeys
// the cache entry and (asynchronously) replaces the persisted snapshot; the
// old fingerprint stops resolving, which is what keeps stale snapshots from
// ever being served. Session jobs (POST /jobs?kind=session&fp=...) run the
// same core on the scheduler instead of the request path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

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

// handleDelta is POST /instances/{fp}/delta: decode the delta batch and run
// it through the shared apply core. 404 when the fingerprint resolves to
// neither a cached instance nor a snapshot; 409 for LSH-prepared instances
// (their sketched similarities cannot absorb churn); 400 for a batch the
// engine's validation rejects.
func (s *server) handleDelta(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !phocus.ValidFingerprint(fp) {
		http.Error(w, fmt.Sprintf("invalid fingerprint %q: want 64 hex characters", fp), http.StatusBadRequest)
		return
	}
	// Deltas are tenant-keyed writes like solves: admission and quota run
	// before any work. This does not scope the fingerprint to the tenant:
	// the tenant is mixed into the instance digest, but applyDeltaCore
	// resolves fp without checking who owns it, so a tenant that knows
	// another tenant's fingerprint can apply a delta to that instance. See
	// the ROADMAP item "Fingerprints must be tenant-scoped handles".
	if _, ok := s.admitTenant(w, r); !ok {
		return
	}
	body, err := readBody(w, r, s.maxBody)
	if err != nil {
		var he *httpError
		errors.As(err, &he)
		http.Error(w, he.Error(), he.status)
		return
	}
	d, err := decodeDelta(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := s.applyDeltaCore(r.Context(), fp, d)
	if err != nil {
		var he *httpError
		switch {
		case errors.As(err, &he):
			http.Error(w, he.Error(), he.status)
		case r.Context().Err() != nil:
			s.reg.Counter("phocus_http_canceled_total", "route", "/instances/{fp}/delta").Inc()
			obs.Logger(r.Context()).Warn("client canceled during delta apply", "err", err)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyDeltaCore resolves the fingerprint to a live Prepared (cache first,
// then snapshot store), applies the batch, and moves the caches to the new
// fingerprint: the old cache entry is removed before the new one lands, and
// the old snapshot is deleted + the post-churn one written back off the
// request path. Shared by the HTTP handler and the kind=session job runner.
func (s *server) applyDeltaCore(ctx context.Context, fp string, d *phocus.Delta) (*deltaResponse, error) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	logger := obs.Logger(ctx)

	prep, _ := s.cache.Get(fp)
	if prep == nil && s.snaps != nil {
		prep = s.loadSnapshot(ctx, fp)
	}
	if prep == nil {
		return nil, &httpError{http.StatusNotFound,
			fmt.Errorf("no prepared instance for fingerprint %.12s… (prepare it via /solve or /jobs first)", fp)}
	}

	ctx, span := obs.StartSpan(ctx, "delta-apply")
	stats, err := prep.ApplyDelta(ctx, d)
	if err != nil {
		span.End("err", err.Error())
		switch {
		case errors.Is(err, phocus.ErrDeltaLSH):
			return nil, &httpError{http.StatusConflict, err}
		case ctx.Err() != nil:
			return nil, err
		default:
			// Everything else ApplyDelta can reject is batch validation — an
			// unknown photo, a husk neighbor, relevance out of range — and the
			// instance is untouched (validation happens before mutation).
			return nil, &httpError{http.StatusBadRequest, err}
		}
	}
	span.End("added", stats.Added, "removed", stats.Removed,
		"compacted", stats.Compacted, "fingerprint", shortFP(stats.NewFingerprint))

	obs.RecordDeltaApply(s.reg, stats.Added, stats.Removed, stats.ApplyTime)
	if stats.Compacted {
		obs.RecordDeltaCompaction(s.reg)
	}
	obs.SetDeltaLiveFraction(s.reg, stats.LiveFraction)

	// Rekey: the pre-churn fingerprint must stop resolving the moment the
	// instance stops matching it.
	s.cache.Put(stats.NewFingerprint, prep)
	s.cache.Remove(stats.OldFingerprint)
	if s.snaps != nil {
		go s.replaceSnapshot(stats.OldFingerprint, stats.NewFingerprint, prep)
	}
	logger.Info("delta applied",
		"old", shortFP(stats.OldFingerprint), "new", shortFP(stats.NewFingerprint),
		"added", stats.Added, "removed", stats.Removed, "compacted", stats.Compacted,
		"apply", stats.ApplyTime.Round(time.Millisecond))

	return &deltaResponse{
		RequestID:      obs.RequestID(ctx),
		OldFingerprint: stats.OldFingerprint,
		NewFingerprint: stats.NewFingerprint,
		Added:          stats.Added,
		Removed:        stats.Removed,
		NewSubsets:     stats.NewSubsets,
		Photos:         prep.NumPhotos(),
		Compacted:      stats.Compacted,
		LiveFraction:   stats.LiveFraction,
		ApplyMS:        float64(stats.ApplyTime.Microseconds()) / 1000,
		SizeBytes:      prep.SizeBytes(),
	}, nil
}

// replaceSnapshot invalidates the pre-churn snapshot and persists the
// post-churn one, off the request path. Remove-then-save order matters: a
// crash in between costs a cold prepare on the next boot, whereas save-first
// could leave BOTH fingerprints on disk and warm-fill would resurrect the
// stale pre-churn instance alongside the new one.
func (s *server) replaceSnapshot(oldFP, newFP string, p *phocus.Prepared) {
	if err := s.snaps.Remove(oldFP); err != nil {
		s.logger.Warn("stale snapshot remove failed", "fingerprint", shortFP(oldFP), "err", err)
	}
	s.saveSnapshot(newFP, p)
}

// decodeDelta decodes a request body holding exactly one delta batch: both
// the synchronous endpoint and session jobs reject an empty body, trailing
// data and a second concatenated batch rather than applying a prefix.
func decodeDelta(data []byte) (*phocus.Delta, error) {
	if len(data) == 0 {
		return nil, errors.New("empty request body: want delta JSON")
	}
	var d phocus.Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("invalid delta JSON: %w", err)
	}
	return &d, nil
}
