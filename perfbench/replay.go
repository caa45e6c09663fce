package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/par"
	"phocus/internal/phocus"
)

// Server defaults the sweep replay mirrors (phocus-server's
// -prepare-cache-entries and -prepare-cache-bytes).
const (
	defaultCacheEntries = 64
	defaultCacheBytes   = 1 << 30
)

// replayer re-runs the server's solve pipeline in process, in solveCore's
// order, with a span around each public function it calls.
type replayer struct {
	tr    *tracer
	cache *phocus.PreparedCache
	store *phocus.SnapshotStore
	// Cache outcomes over the timed ops.
	hits, evictions int
}

func newReplayer(dir string, entries int) (*replayer, error) {
	store, err := phocus.OpenSnapshotStore(dir)
	if err != nil {
		return nil, err
	}
	return &replayer{tr: newTracer(), cache: phocus.NewPreparedCache(entries, defaultCacheBytes), store: store}, nil
}

// solve replays one /solve: decode with the sha256 tee (the tenant mixed in
// first, as the server does), the budget Finalize, FingerprintFor,
// GetOrPrepare (snapshot Load, else a cold Prepare), Save after a cold
// Prepare, Run, and the JSON encode of the response.
func (p *replayer) solve(op int, o serveOp) (answer, error) {
	ctx := context.Background()
	tr := p.tr
	root := tr.begin(spanOp, -1, op, false)
	defer tr.end(root)

	sp := tr.begin(spanDecode, root, op, true)
	h := sha256.New()
	fmt.Fprintf(h, "phocus/tenant/v1|%s\n", o.tenant)
	inst, _, err := par.ReadJSONVectors(io.TeeReader(bytes.NewReader(o.arch.body), h))
	tr.end(sp)
	tr.set(sp, "bytes", float64(len(o.arch.body)))
	if err != nil {
		return answer{}, err
	}

	sp = tr.begin(spanFinalize, root, op, false)
	inst.Budget = o.budget()
	err = inst.Finalize()
	tr.end(sp)
	if err != nil {
		return answer{}, err
	}

	sp = tr.begin(spanFingerprint, root, op, false)
	popts := phocus.PrepareOptions{Tau: tau, InstanceDigest: hex.EncodeToString(h.Sum(nil))}
	key := phocus.FingerprintFor(popts.InstanceDigest, popts)
	tr.end(sp)

	var cold *phocus.Prepared
	g := tr.begin(spanGetOrPrep, root, op, false)
	prep, hit, evicted, err := p.cache.GetOrPrepare(key, func() (*phocus.Prepared, error) {
		l := tr.begin(spanLoad, g, op, false)
		q, err := p.store.Load(key)
		tr.end(l)
		if err == nil {
			tr.set(l, "found", 1)
			tr.set(l, "prepared_bytes", float64(q.SizeBytes()))
			return q, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		pp := tr.begin(spanPrepare, g, op, true)
		q, err = phocus.Prepare(ctx, &dataset.Dataset{Instance: inst}, popts)
		tr.end(pp)
		if err != nil {
			return nil, err
		}
		tracePrepared(tr, pp, q)
		cold = q
		return q, nil
	})
	tr.end(g)
	if err != nil {
		return answer{}, err
	}
	if op >= 0 {
		if hit {
			p.hits++
		}
		p.evictions += evicted
	}

	if cold != nil {
		sp = tr.begin(spanSave, root, op, false)
		_, size, err := p.store.Save(cold)
		tr.end(sp)
		if err != nil {
			return answer{}, err
		}
		tr.set(sp, "bytes", float64(size))
	}

	res, err := traceRun(tr, root, op, prep, inst.Budget)
	if err != nil {
		return answer{}, err
	}
	a := answer{Retain: res.Solution.Photos, Archive: res.Archived, Score: res.Solution.Score,
		Cost: res.Solution.Cost, Budget: inst.Budget, Bound: res.OnlineBound}

	sp = tr.begin(spanEncode, root, op, false)
	fp, _ := prep.Fingerprint()
	err = json.NewEncoder(io.Discard).Encode(struct {
		Fingerprint string        `json:"fingerprint"`
		Algorithm   string        `json:"algorithm"`
		Retain      []par.PhotoID `json:"retain"`
		Archive     []par.PhotoID `json:"archive"`
		Score       float64       `json:"score"`
		Cost        float64       `json:"cost"`
		Budget      float64       `json:"budget"`
		OnlineBound float64       `json:"online_bound"`
	}{fp, res.Algorithm, a.Retain, a.Archive, a.Score, a.Cost, a.Budget, a.Bound})
	tr.end(sp)
	return a, err
}

// tracePrepared records Prepare's own stage split as child spans of pp —
// sparsification (with the base Finalize) first, kernel compile last — and
// the sizes of what it built.
func tracePrepared(tr *tracer, pp int, q *phocus.Prepared) {
	sparse := q.PrepTime - q.KernelBuildTime
	tr.add(spanSparsify, pp, 0, sparse)
	tr.add(spanKernel, pp, sparse, q.KernelBuildTime)
	tr.set(pp, "kernel_bytes", float64(q.KernelBytes()))
	tr.set(pp, "prepared_bytes", float64(q.SizeBytes()))
	if q.OriginalPairs > 0 {
		tr.set(pp, "keep_ratio", float64(q.SparsifiedPairs)/float64(q.OriginalPairs))
	}
}

// traceRun runs prep under budget inside a span, with the solver's own
// SolveTime as a child span and its work counts as attributes.
func traceRun(tr *tracer, parent, op int, prep *phocus.Prepared, budget float64) (*phocus.Result, error) {
	var st celf.Stats
	sp := tr.begin(spanRun, parent, op, true)
	res, err := prep.Run(context.Background(), phocus.RunOptions{Budget: budget, OnCELFStats: func(s celf.Stats) { st = s }})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	s := tr.add(spanSolve, sp, 0, res.SolveTime)
	tr.set(s, "gain_evals", float64(st.GainEvals))
	tr.set(s, "pq_pops", float64(st.PQPops))
	return res, nil
}

// replay sends ops through the replayer and the gate; a failed op counts
// like a failed HTTP op.
func (r *run) replay(p *replayer, first int, ops []serveOp) {
	for i, o := range ops {
		op := -1
		if first >= 0 {
			op = first + i
		}
		r.attempted++
		a, err := p.solve(op, o)
		if err != nil {
			r.problem("replay %s %s: %v", o.tenant, o.key, err)
			continue
		}
		if !r.gate.check(o.key, o.arch.ref, a) {
			r.failed++
		}
	}
}

// replaySweep replays serve_sweep in process: ingest every archive into an
// empty snapshot store, restart (a fresh cache warm-filled from the store),
// then the same op sequence the HTTP phase sent.
func (r *run) replaySweep(as []*archive) error {
	p, err := newReplayer(filepath.Join(r.dir, "replay-snaps"), defaultCacheEntries)
	if err != nil {
		return err
	}
	ingest := make([]serveOp, len(as))
	for i := range ingest {
		ingest[i] = sweepOp(as, i)
	}
	r.replay(p, -1, ingest)
	p.cache = phocus.NewPreparedCache(defaultCacheEntries, defaultCacheBytes)
	w := p.tr.begin(spanWarmFill, -1, -1, false)
	stats, err := p.store.WarmFill(p.cache, func(fp string, q *phocus.Prepared, d time.Duration) {
		l := p.tr.add(spanLoad, w, time.Since(p.tr.t0)-d-p.tr.spans[w].Start, d)
		p.tr.set(l, "found", 1)
		p.tr.set(l, "prepared_bytes", float64(q.SizeBytes()))
	}, nil)
	p.tr.end(w)
	if err != nil {
		return err
	}
	r.expect("replay warm-fill loads", float64(stats.Loaded), float64(len(as)))
	ops := make([]serveOp, tracedSweepOps)
	for i := range ops {
		ops[i] = sweepOp(as, i)
	}
	r.replay(p, 0, ops)
	return r.serveLayers(p, len(ops))
}

// replayIngest replays serve_ingest in process with the server's cache
// bound: fill the cache, then the same fresh-archive ops.
func (r *run) replayIngest(pool []*archive) error {
	p, err := newReplayer(filepath.Join(r.dir, "replay-snaps"), ingestCache)
	if err != nil {
		return err
	}
	fill := make([]serveOp, ingestCache)
	for j := range fill {
		fill[j] = fillOp(pool, j)
	}
	r.replay(p, -1, fill)
	ops := make([]serveOp, tracedIngestOps)
	for i := range ops {
		ops[i] = ingestOp(pool, i)
	}
	r.replay(p, 0, ops)
	return r.serveLayers(p, len(ops))
}

// serveLayers turns a serve replay's spans into the per-layer metrics.
// serve.other_ms is, per timed HTTP op, the client latency minus the
// server's own stage spans for that request (decode, sparsify, solve,
// encode, from its span log): transport, admission, the cache probe,
// telemetry and the request log. The server's spans are used rather than the
// replay's because stage times measured in another process differ by the
// heap and GC state of that process, which is larger than what is left.
func (r *run) serveLayers(p *replayer, ops int) error {
	stages, err := serverStageMS(filepath.Join(r.dir, "server.log"))
	if err != nil {
		return err
	}
	other := make([]float64, len(r.lat))
	for i, lat := range r.lat {
		s, ok := stages[opRequestID(i)]
		if !ok {
			return fmt.Errorf("no server spans for %s", opRequestID(i))
		}
		other[i] = lat - s
	}
	m := layerMetrics(r, p.tr)
	m["phocus.cache_hit_ratio"] = float64(p.hits) / float64(ops)
	m["phocus.cache_evictions_per_op"] = float64(p.evictions) / float64(ops)
	m["serve.other_ms"] = median(other)
	r.layer = m
	return nil
}

// layerMetrics computes the per-layer metrics every workload shares from a
// tracer's spans, prints the self-time report, and dumps the spans.
func layerMetrics(r *run, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	decode := tr.named(spanDecode, true)
	m["par.decode_ms"] = median(durMS(decode))
	rates, allocs := make([]float64, len(decode)), make([]float64, len(decode))
	for i, s := range decode {
		rates[i] = s.Attrs["bytes"] / 1e6 / s.dur().Seconds()
		allocs[i] = float64(s.Alloc) / 1e6
	}
	m["par.decode_mb_per_s"] = median(rates)
	m["par.decode_alloc_mb"] = median(allocs)
	m["par.finalize_ms"] = median(durMS(tr.named(spanFinalize, true)))

	// Prepare happens in set-up on most workloads, so its spans count
	// wherever they occur.
	prepares := tr.named(spanPrepare, false)
	m["phocus.prepare_ms"] = median(durMS(prepares))
	m["par.kernel_compile_ms"] = median(durMS(tr.named(spanKernel, false)))
	m["sparsify.ms"] = median(durMS(tr.named(spanSparsify, false)))
	m["par.kernel_mb"] = median(attr(prepares, "kernel_bytes")) / 1e6
	m["sparsify.keep_ratio"] = median(attr(prepares, "keep_ratio"))
	var loaded []*span
	for _, s := range tr.named(spanLoad, false) {
		if s.Attrs["found"] == 1 {
			loaded = append(loaded, s)
		}
	}
	m["phocus.snapshot_load_ms"] = median(durMS(loaded))
	m["phocus.prepared_mb"] = median(append(attr(prepares, "prepared_bytes"), attr(loaded, "prepared_bytes")...)) / 1e6
	saves := tr.named(spanSave, false)
	m["phocus.snapshot_save_ms"] = median(durMS(saves))
	m["phocus.snapshot_mb"] = median(attr(saves, "bytes")) / 1e6

	self := tr.selfTimes()
	var probe []float64
	for _, s := range tr.named(spanGetOrPrep, true) {
		probe = append(probe, ms(self[s.ID]))
	}
	m["phocus.cache_probe_ms"] = median(probe)

	runs := tr.named(spanRun, true)
	solves := tr.named(spanSolve, true)
	m["phocus.run_ms"] = median(durMS(runs))
	rescore, runAllocs := make([]float64, len(runs)), make([]float64, len(runs))
	for i, s := range runs {
		rescore[i] = ms(self[s.ID])
		runAllocs[i] = float64(s.Mallocs)
	}
	m["phocus.rescore_bound_ms"] = median(rescore)
	m["phocus.run_allocs"] = median(runAllocs)
	m["celf.solve_ms"] = median(durMS(solves))
	evals := attr(solves, "gain_evals")
	m["celf.gain_evals"] = mean(evals)
	m["celf.pq_pops"] = mean(attr(solves, "pq_pops"))
	if t := mean(durMS(solves)); t > 0 {
		m["celf.evals_per_ms"] = mean(evals) / t
	}
	m["serve.encode_ms"] = median(durMS(tr.named(spanEncode, true)))
	m["phocus.live_fraction"] = 1

	uncovered, top := tr.layerReport(r.out)
	m["trace.uncovered_ms"] = median(uncovered)
	r.logf("largest self time on %s: %s", r.workload, top)
	path := filepath.Join(filepath.Dir(filepath.Dir(r.dir)), fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		r.logf("span dump: %v", err)
	} else {
		r.logf("spans: %s", path)
	}
	return m
}
