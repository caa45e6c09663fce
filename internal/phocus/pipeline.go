// The solve service's request pipeline: Figure 4's Data Representation then
// Solver, in one order for every request. Solve (by instance body) and Apply
// (a delta batch by fingerprint) share one resolve stage — a prepare-cache
// probe, then the snapshot store, then for a solve a deferred parse and a
// cold Prepare — which also checks the fingerprint's owner. Snapshots let a
// restart warm-fill the cache; a corrupt file is quarantined (renamed
// *.snap.corrupt), counted, and treated as absent.
package phocus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/embed"
	"phocus/internal/fleet"
	"phocus/internal/obs"
	"phocus/internal/par"
	"phocus/internal/sviridenko"
)

// ErrUnknownFingerprint answers a fingerprint that names no prepared
// instance of the asking tenant: one that neither the cache nor the snapshot
// store holds, or one that another tenant owns. The two cases read the same
// on purpose, so a handle tells a tenant that does not own it nothing.
var ErrUnknownFingerprint = errors.New("phocus: unknown fingerprint")

// ErrInvalidInput tags the failures a request's own content causes: a body
// that does not decode, a delta batch ApplyDelta rejects, LSH without context
// vectors, a budget below C(S0). The tagged error keeps its cause's message.
var ErrInvalidInput = errors.New("phocus: invalid input")

// Invalid tags err with ErrInvalidInput.
func Invalid(err error) error { return tagged{err, ErrInvalidInput} }

// tagged adds a sentinel to an error's chain without changing its message.
type tagged struct {
	error
	tag error
}

func (e tagged) Unwrap() []error { return []error{e.error, e.tag} }

func unknownFingerprint(fp string) error {
	return tagged{fmt.Errorf("no prepared instance for fingerprint %.12s… (prepare it via /solve or /jobs first)", fp), ErrUnknownFingerprint}
}

// Pipeline runs solve and delta requests. Set its fields before the first
// request: Snapshots nil turns snapshots off, and Logger takes the lines of
// work done off a request (write-back, warm-fill).
type Pipeline struct {
	Cache         *PreparedCache
	Snapshots     *SnapshotStore
	Metrics       *obs.Registry
	SLO           *obs.SLOTracker
	Logger        *slog.Logger
	Workers       int
	ExactMaxNodes int64

	// deltaMu serializes deltas: ApplyDelta holds the Prepared's write lock
	// anyway, and serializing here keeps the apply, the cache rekey and the
	// snapshot replace atomic with respect to other deltas (two concurrent
	// batches on one instance would otherwise race to remove each other's
	// fingerprints).
	deltaMu sync.Mutex
}

// SolveRequest is one solve by body. The decode span starts at Start, when
// reading Body began; Budget 0 keeps the body's own, which costs an up-front
// parse.
type SolveRequest struct {
	Tenant    string
	Body      []byte
	Start     time.Time
	Budget    float64
	Tau       float64
	LSH       bool
	Seed      int64
	Algorithm Algorithm
	// Timeout, when positive, deadlines the solve stage alone.
	Timeout time.Duration
}

// Answer is a finished solve: the Prepared's fingerprint (the handle Apply
// takes), the budget, the solver's work report and the solve span's time.
type Answer struct {
	*Result
	Fingerprint       string
	Budget            float64
	GainEvals, PQPops int64
	Winner            string
	TracePrefix       int
	Seeds             int64
	Elapsed           time.Duration
}

// instanceDigest is the prepared-instance cache's content key for a body:
// sha256 over the tenant prefix and the whole body. Mixing the tenant in
// ahead of the body bytes scopes prepared instances, cache entries and
// snapshot files to their tenant: two tenants uploading the same archive
// never share a fingerprint. The default tenant mixes nothing, keeping every
// pre-tenancy digest valid across the upgrade.
func instanceDigest(tenant string, body []byte) string {
	h := sha256.New()
	if tenant != "" && tenant != fleet.DefaultTenant {
		fmt.Fprintf(h, "phocus/tenant/v1|%s\n", tenant)
	}
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// Solve is the solve-by-body entry. It digests the body with its tenant into
// the cache key and resolves that; a hit never parses the body, because the
// key exists only for bytes of this tenant that parsed and prepared under
// these exact preparation parameters. The body is parsed up front only when
// the request has no budget of its own, and otherwise inside a cold Prepare,
// which records a decode span of its own. The cache's singleflight means
// concurrent identical archives prepare once. Context errors come back
// verbatim for the caller to classify.
func (pl *Pipeline) Solve(ctx context.Context, req SolveRequest) (*Answer, error) {
	_, decodeSpan := obs.StartSpanAt(ctx, "decode", req.Start)
	digest := instanceDigest(req.Tenant, req.Body)
	var inst *par.Instance
	var vecs [][][]float64
	// parse decodes the body, ending span with parsed=true and the body's
	// size, and drops the bytes so the GC can reclaim them while Prepare and
	// Run allocate.
	parse := func(span *obs.Span) error {
		var err error
		size := len(req.Body)
		inst, vecs, err = par.DecodeJSONVectors(req.Body)
		req.Body = nil
		if err != nil {
			span.End("parsed", true, "bytes", size, "err", err.Error())
			return Invalid(err)
		}
		span.End("parsed", true, "bytes", size, "photos", inst.NumPhotos(), "subsets", len(inst.Subsets))
		return nil
	}
	budget := req.Budget
	if budget == 0 {
		if err := parse(decodeSpan); err != nil {
			return nil, err
		}
		budget = inst.Budget
	} else {
		decodeSpan.End("parsed", false, "bytes", len(req.Body))
	}

	popts := PrepareOptions{Tau: req.Tau, UseLSH: req.LSH, Seed: req.Seed, Workers: pl.Workers,
		InstanceDigest: digest, Metrics: pl.Metrics}
	// The key excludes the budget (a Run parameter), so a budget sweep over
	// one archive prepares exactly once. Run checks the budget against
	// C(S0), on a hit and a miss alike.
	prep, hit, err := pl.resolve(ctx, FingerprintFor(digest, popts), req.Tenant, func() (*Prepared, error) {
		if inst == nil {
			_, span := obs.StartSpan(ctx, "decode")
			if err := parse(span); err != nil {
				return nil, err
			}
		}
		var span *obs.Span
		if req.Tau > 0 {
			_, span = obs.StartSpan(ctx, "sparsify")
		}
		prep, err := Prepare(ctx, &dataset.Dataset{Instance: inst, CtxVectors: toCtxVectors(vecs)}, popts)
		if err != nil {
			if span != nil {
				span.End("err", err.Error())
			}
			if errors.Is(err, ErrNoCtxVectors) {
				err = Invalid(err)
			}
			return nil, err
		}
		if span != nil {
			span.End("tau", req.Tau, "lsh", req.LSH,
				"pairs_before", prep.OriginalPairs, "pairs_after", prep.SparsifiedPairs)
		}
		if prep.OriginalPairs > 0 {
			pl.Metrics.Gauge("phocus_sparsify_keep_ratio").
				Set(float64(prep.SparsifiedPairs) / float64(prep.OriginalPairs))
		}
		return prep, nil
	})
	if err != nil {
		return nil, err
	}
	obs.RecordPrepareCache(pl.Metrics, hit)

	// The solve is the expensive stage: if the caller already went away,
	// stop here instead of burning CPU on an unwanted answer.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	a := &Answer{Budget: budget}
	ropts := RunOptions{Budget: budget, Algorithm: req.Algorithm, Workers: pl.Workers, ExactMaxNodes: pl.ExactMaxNodes}
	solveWorkers := 1 // only the CELF path is parallel; label others honestly
	switch req.Algorithm {
	case "", AlgoCELF:
		solveWorkers = pl.Workers
		ropts.OnCELFStats = func(st celf.Stats) {
			a.GainEvals, a.PQPops, a.Winner, a.TracePrefix = st.GainEvals, st.PQPops, st.Winner.String(), st.TracePrefix
		}
	case AlgoSviridenko:
		ropts.OnSviridenkoStats = func(st sviridenko.Stats) { a.Seeds = st.Seeds }
	}
	solveCtx := ctx
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	solveCtx, solveSpan := obs.StartSpan(solveCtx, "solve")
	res, err := prep.Run(solveCtx, ropts)
	if err != nil {
		solveSpan.End("algo", req.Algorithm.DisplayName(), "err", err.Error())
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			obs.RecordSolveCanceled(pl.Metrics, req.Algorithm.DisplayName())
		}
		if errors.Is(err, par.ErrRetainedOverBudget) {
			return nil, Invalid(fmt.Errorf("invalid budget %g: %w", req.Budget, err))
		}
		return nil, err
	}
	a.Result = res
	a.Elapsed = solveSpan.End("algo", res.Algorithm, "score", res.Solution.Score, "trace_prefix", a.TracePrefix,
		"rescore_ms", obs.DurMS(res.RescoreTime), "bound_ms", obs.DurMS(res.BoundTime))

	obs.RecordSolve(pl.Metrics, res.Algorithm, solveWorkers, prep.NumPhotos(), a.GainEvals, a.PQPops, a.Elapsed)
	pl.SLO.Latency(obs.SLOSolveLatency).Observe(a.Elapsed.Seconds())
	if budget > 0 {
		pl.Metrics.Histogram("phocus_solve_budget_utilization", obs.RatioBuckets).
			Observe(res.Solution.Cost / budget)
	}
	pl.Metrics.Gauge("phocus_last_solve_score").Set(res.Solution.Score)
	if res.OnlineBound > 0 {
		pl.Metrics.Histogram("phocus_solve_bound_ratio", obs.RatioBuckets).
			Observe(res.Solution.Score / res.OnlineBound)
	}
	// The fingerprint comes from the Prepared itself, not the cache key: a
	// delta landing between the resolve and here would have evolved it.
	a.Fingerprint, _ = prep.Fingerprint()
	return a, nil
}

// Apply is the apply-delta-by-fingerprint entry: it decodes one delta batch
// from body, resolves fp for tenant (never by a cold build), applies the
// batch, and moves the instance to its new fingerprint. The new cache entry
// lands before the old one goes, so the pre-churn fingerprint stops
// resolving the moment the instance stops matching it.
func (pl *Pipeline) Apply(ctx context.Context, tenant, fp string, body []byte) (*DeltaStats, error) {
	d, err := decodeDelta(body)
	if err != nil {
		return nil, Invalid(err)
	}
	pl.deltaMu.Lock()
	defer pl.deltaMu.Unlock()
	prep, _, err := pl.resolve(ctx, fp, tenant, nil)
	if err != nil {
		return nil, err
	}

	ctx, span := obs.StartSpan(ctx, "delta-apply")
	stats, err := prep.ApplyDelta(ctx, d)
	if err != nil {
		span.End("err", err.Error())
		if errors.Is(err, ErrDeltaLSH) || ctx.Err() != nil {
			return nil, err
		}
		// Everything else ApplyDelta can reject is batch validation — an
		// unknown photo, a husk neighbor, relevance out of range — and the
		// instance is untouched (validation happens before mutation).
		return nil, Invalid(err)
	}
	span.End("added", stats.Added, "removed", stats.Removed,
		"compacted", stats.Compacted, "fingerprint", shortFP(stats.NewFingerprint))
	obs.RecordDeltaApply(pl.Metrics, stats.Added, stats.Removed, stats.ApplyTime)
	if stats.Compacted {
		obs.RecordDeltaCompaction(pl.Metrics)
	}
	obs.SetDeltaLiveFraction(pl.Metrics, stats.LiveFraction)

	obs.RecordPrepareCacheEvictions(pl.Metrics, int64(pl.Cache.Put(stats.NewFingerprint, prep)))
	pl.Cache.Remove(stats.OldFingerprint)
	if pl.Snapshots != nil {
		// Remove-then-save order matters: a crash in between costs a cold
		// prepare on the next boot, whereas save-first could leave BOTH
		// fingerprints on disk and warm-fill would resurrect the stale
		// pre-churn instance alongside the new one.
		if err := pl.Snapshots.Remove(stats.OldFingerprint); err != nil {
			pl.Logger.Warn("stale snapshot remove failed", "fingerprint", shortFP(stats.OldFingerprint), "err", err)
		}
		pl.saveSnapshot(stats.NewFingerprint, prep)
	}
	obs.Logger(ctx).Info("delta applied",
		"old", shortFP(stats.OldFingerprint), "new", shortFP(stats.NewFingerprint),
		"added", stats.Added, "removed", stats.Removed, "compacted", stats.Compacted,
		"apply", stats.ApplyTime.Round(time.Millisecond))
	return stats, nil
}

// resolve is the one lookup of a Prepared by fingerprint that both entries
// share: one cache probe, then on a miss the snapshot store, then, when cold
// is non-nil, a cold build that records tenant as the Prepared's owner and
// writes its snapshot back off the request path. A Prepared that another
// tenant owns resolves exactly like a fingerprint nobody holds. hit reports
// whether the cache, or a concurrent build it joined, answered.
func (pl *Pipeline) resolve(ctx context.Context, fp, tenant string, cold func() (*Prepared, error)) (*Prepared, bool, error) {
	prep, hit, evicted, err := pl.Cache.GetOrPrepare(fp, func() (*Prepared, error) {
		if p := pl.loadSnapshot(ctx, fp); p != nil {
			return p, nil
		}
		if cold == nil {
			return nil, unknownFingerprint(fp)
		}
		p, err := cold()
		if err != nil {
			return nil, err
		}
		p.owner = tenant
		if pl.Snapshots != nil {
			// The response does not wait on disk; a failed write only
			// costs the next restart a cold start.
			go pl.saveSnapshot(fp, p)
		}
		return p, nil
	})
	obs.RecordPrepareCacheEvictions(pl.Metrics, int64(evicted))
	// Checked after the probe, not in the build: every waiter on a build
	// gets its result, and the owner must not inherit another tenant's 404.
	if err == nil && prep.owner != tenant {
		return nil, false, unknownFingerprint(fp)
	}
	return prep, hit, err
}

// loadSnapshot returns the persisted Prepared for fp, or nil when the store
// holds no usable one. A flipped byte anywhere in the file fails a checksum
// and lands in the ErrBadSnapshot branch: the file is quarantined and
// counted, so unverified bytes never reach a solver.
func (pl *Pipeline) loadSnapshot(ctx context.Context, fp string) *Prepared {
	if pl.Snapshots == nil {
		return nil
	}
	logger := obs.Logger(ctx)
	t0 := time.Now()
	p, err := pl.Snapshots.Load(fp)
	switch {
	case err == nil:
		elapsed := time.Since(t0)
		obs.RecordSnapshotLoad(pl.Metrics, elapsed)
		logger.Info("prepared instance loaded from snapshot",
			"fingerprint", shortFP(fp), "bytes", p.SizeBytes(), "load", elapsed.Round(time.Millisecond))
		return p
	case errors.Is(err, ErrBadSnapshot):
		obs.RecordSnapshotCorrupt(pl.Metrics)
		if qerr := pl.Snapshots.Quarantine(fp); qerr != nil {
			logger.Error("snapshot quarantine failed", "fingerprint", shortFP(fp), "err", qerr)
		}
		logger.Warn("corrupt snapshot quarantined", "fingerprint", shortFP(fp), "err", err)
	case !os.IsNotExist(err):
		// Environmental (permissions, I/O): the caller falls back, say why.
		logger.Warn("snapshot load failed", "fingerprint", shortFP(fp), "err", err)
	}
	return nil
}

// saveSnapshot persists one prepared instance and records the write.
func (pl *Pipeline) saveSnapshot(fp string, p *Prepared) {
	path, size, err := pl.Snapshots.Save(p)
	if err != nil {
		pl.Logger.Warn("snapshot save failed", "fingerprint", shortFP(fp), "err", err)
		return
	}
	obs.RecordSnapshotWrite(pl.Metrics, size)
	pl.Logger.Info("snapshot saved", "path", path, "bytes", size)
}

// WarmFill loads every snapshot in the store into the cache, oldest first so
// the LRU keeps the newest, and counts and logs each outcome. Run it once,
// at startup, before the service reports ready.
func (pl *Pipeline) WarmFill() {
	t0 := time.Now()
	stats, err := pl.Snapshots.WarmFill(pl.Cache,
		func(fp string, p *Prepared, d time.Duration) {
			obs.RecordSnapshotLoad(pl.Metrics, d)
		},
		func(fp string, err error) {
			obs.RecordSnapshotCorrupt(pl.Metrics)
			pl.Logger.Warn("corrupt snapshot quarantined during warm-fill",
				"fingerprint", shortFP(fp), "err", err)
		})
	if err != nil {
		pl.Logger.Error("snapshot warm-fill", "err", err)
		return
	}
	obs.RecordSnapshotTempSwept(pl.Metrics, int64(stats.TempSwept))
	pl.Logger.Info("snapshot warm-fill done",
		"dir", pl.Snapshots.Dir(), "loaded", stats.Loaded, "corrupt", stats.Corrupt,
		"temp_swept", stats.TempSwept, "bytes", stats.Bytes,
		"elapsed", time.Since(t0).Round(time.Millisecond))
}

// decodeDelta decodes a body holding exactly one delta batch: an empty
// body, trailing data and a second concatenated batch are rejected rather
// than applied as a prefix.
func decodeDelta(data []byte) (*Delta, error) {
	if len(data) == 0 {
		return nil, errors.New("empty request body: want delta JSON")
	}
	var d Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("invalid delta JSON: %w", err)
	}
	return &d, nil
}

// toCtxVectors converts wire-format vector groups to the dataset embedding
// type (a cheap per-vector header conversion).
func toCtxVectors(vecs [][][]float64) [][]embed.Vector {
	if vecs == nil {
		return nil
	}
	out := make([][]embed.Vector, len(vecs))
	for i, group := range vecs {
		out[i] = make([]embed.Vector, len(group))
		for j, v := range group {
			out[i][j] = embed.Vector(v)
		}
	}
	return out
}

// shortFP abbreviates a fingerprint for log lines.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
