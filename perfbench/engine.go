package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"phocus/internal/dataset"
	"phocus/internal/par"
	"phocus/internal/phocus"
)

// tracedSweepRuns is how many ops a traced engine_sweep run makes: every
// other op is traced, so each half covers every rung four times.
const tracedSweepRuns = 8 * len(ladder)

func resultAnswer(res *phocus.Result, budget float64) answer {
	return answer{Retain: res.Solution.Photos, Archive: res.Archived, Score: res.Solution.Score,
		Cost: res.Solution.Cost, Budget: budget, Bound: res.OnlineBound}
}

// prepareEngine runs one set-up: a cold phocus.Prepare of the engine
// instance on a collected heap, traced when tr is non-nil.
func (r *run) prepareEngine(in *engineInput, opts phocus.PrepareOptions, tr *tracer) (*phocus.Prepared, error) {
	runtime.GC()
	t0 := time.Now()
	sp := -1
	if tr != nil {
		sp = tr.begin(spanPrepare, -1, -1, true)
	}
	prep, err := phocus.Prepare(context.Background(), in.ds, opts)
	r.setup = append(r.setup, time.Since(t0).Seconds())
	if tr != nil {
		tr.end(sp)
		if err == nil {
			tracePrepared(tr, sp, prep)
		}
	}
	return prep, err
}

// engineSweep: one Prepare, then in-process Runs over the budget ladder.
func engineSweep(r *run, traced bool) error {
	in, err := genEngine(r.seed, false)
	if err != nil {
		return err
	}
	dg := newInputDigest()
	if err := dg.engine(in); err != nil {
		return err
	}
	r.logf("inputs: %d photos, %d subsets, input digest %s", in.ds.Instance.NumPhotos(), len(in.ds.Instance.Subsets), dg)
	opts := phocus.PrepareOptions{Tau: tau, InstanceDigest: dg.String()}
	ctx := context.Background()

	var tr *tracer
	reps := setupReps
	if traced {
		tr, reps = newTracer(), 1
	}
	var prep *phocus.Prepared
	for rep := 0; rep < reps; rep++ {
		prep = nil
		if prep, err = r.prepareEngine(in, opts, tr); err != nil {
			return err
		}
	}
	total := in.ds.Instance.TotalCost()
	budget := func(i int) float64 { return ladder[i%len(ladder)] * total }

	type done struct {
		rung int
		res  *phocus.Result
		err  error
	}
	var ops []done
	var plain, withSpans []float64
	if err := startRSSWindow(); err != nil {
		return err
	}
	start := time.Now()
	// A timed run ends on a whole cycle of the ladder.
	for i := 0; traced && i < tracedSweepRuns || !traced && (time.Since(start) < r.seconds || i%len(ladder) != 0); i++ {
		var res *phocus.Result
		t0 := time.Now()
		if traced && i%2 == 1 {
			root := tr.begin(spanOp, -1, i, false)
			res, err = traceRun(tr, root, i, prep, budget(i))
			tr.end(root)
			withSpans = append(withSpans, ms(tr.spans[root].dur()))
		} else {
			res, err = prep.Run(ctx, phocus.RunOptions{Budget: budget(i)})
			d := ms(time.Since(t0))
			r.lat = append(r.lat, d)
			plain = append(plain, d)
		}
		ops = append(ops, done{i % len(ladder), res, err})
	}
	r.wall = time.Since(start)
	if r.rssMB, err = peakRSSMB(0); err != nil {
		return err
	}
	dense, err := materialize(in.ds.Instance, nil)
	if err != nil {
		return err
	}
	for _, o := range ops {
		r.attempted++
		if o.err != nil {
			r.problem("rung %d: %v", o.rung, o.err)
		} else if !r.gate.check(fmt.Sprintf("rung%d", o.rung), dense, resultAnswer(o.res, budget(o.rung))) {
			r.failed++
		}
	}
	if traced {
		r.layer = layerMetrics(r, tr)
		r.layer["trace.overhead_pct"] = overheadPct(withSpans, plain)
	}
	return nil
}

// startRSSWindow returns garbage from input generation to the OS and starts
// a new peak-RSS window, so rss_mb covers what the engine holds while it
// serves the timed ops.
func startRSSWindow() error {
	debug.FreeOSMemory()
	return resetPeakRSS(0)
}

// overheadPct compares traced with untraced op latencies at the median.
func overheadPct(traced, plain []float64) float64 {
	return 100 * (median(traced) - median(plain)) / median(plain)
}

// churnOp is one engine_churn op's outcome, kept for the checks that run
// after the clock stops.
type churnOp struct {
	step      int
	res       *phocus.Result
	err       error
	compacted bool
	live      float64
}

// engineChurn: passes over a chain of 1% churn batches. Each pass starts
// from a fresh Prepare (set-up, untimed); each op applies the next batch
// with ApplyDelta and runs one Run on the churned instance. A timed run
// makes whole passes until its time is up, so every run sees the same
// sequence of states and compactions.
func engineChurn(r *run, traced bool) error {
	in, err := genEngine(r.seed, true)
	if err != nil {
		return err
	}
	dg := newInputDigest()
	if err := dg.engine(in); err != nil {
		return err
	}
	r.logf("inputs: %d photos, %d subsets, %d churn batches of -%d/+%d photos, input digest %s",
		in.ds.Instance.NumPhotos(), len(in.ds.Instance.Subsets), len(in.chain), churnRemove, churnAdd, dg)
	opts := phocus.PrepareOptions{Tau: tau, InstanceDigest: dg.String()}
	ctx := context.Background()

	var ops []churnOp
	var tr *tracer
	var plain, withSpans []float64
	used := time.Duration(0)
	if err := startRSSWindow(); err != nil {
		return err
	}
	for pass := 0; traced && pass < 2 || !traced && used < r.seconds; pass++ {
		// A traced run makes two identical passes: the first with spans, the
		// second without, for the tracing overhead.
		var ptr *tracer
		if traced && pass == 0 {
			tr = newTracer()
			ptr = tr
		}
		prep, err := r.prepareEngine(in, opts, ptr)
		if err != nil {
			return err
		}
		start := time.Now()
		for j := 0; j < len(in.chain); j++ {
			o := churnOp{step: j}
			t0 := time.Now()
			root := -1
			if ptr != nil {
				root = ptr.begin(spanOp, -1, j, false)
			}
			var st *phocus.DeltaStats
			sp := -1
			if ptr != nil {
				sp = ptr.begin(spanDelta, root, j, true)
			}
			st, o.err = prep.ApplyDelta(ctx, in.chain[j])
			if ptr != nil {
				ptr.end(sp)
			}
			if o.err == nil {
				o.compacted, o.live = st.Compacted, st.LiveFraction
				if ptr != nil {
					o.res, o.err = traceRun(ptr, root, j, prep, in.stepBudget(j))
				} else {
					o.res, o.err = prep.Run(ctx, phocus.RunOptions{Budget: in.stepBudget(j)})
				}
			}
			d := ms(time.Since(t0))
			if ptr != nil {
				ptr.end(root)
				withSpans = append(withSpans, ms(ptr.spans[root].dur()))
			} else {
				r.lat = append(r.lat, d)
				plain = append(plain, d)
			}
			ops = append(ops, o)
			if o.err != nil {
				break
			}
		}
		used += time.Since(start)
	}
	r.wall = used
	if r.rssMB, err = peakRSSMB(0); err != nil {
		return err
	}
	compactions := r.checkChurn(in, opts, ops)
	r.attempted++
	if compactions == 0 {
		r.problem("self-validation: no compaction in %d ops", len(ops))
	}
	if traced {
		r.layer = layerMetrics(r, tr)
		var live []float64
		n := 0
		for _, o := range ops[:len(withSpans)] {
			live = append(live, o.live)
			if o.compacted {
				n++
			}
		}
		deltas := tr.named(spanDelta, true)
		r.expect("traced ops with an ApplyDelta span", float64(len(deltas)), float64(len(withSpans)))
		r.layer["phocus.delta_apply_ms"] = median(durMS(deltas))
		r.layer["phocus.compactions_per_run"] = float64(n)
		r.layer["phocus.live_fraction"] = median(live)
		r.layer["trace.overhead_pct"] = overheadPct(withSpans, plain)
	}
	return nil
}

// checkChurn passes every op through the gate against the benchmark's copy of
// the archive at that step, rebuilt by replaying the chain with MergeDelta,
// and compares the last op bit for bit with a cold Prepare of the merged
// archive. It returns the number of compactions the ops triggered.
func (r *run) checkChurn(in *engineInput, opts phocus.PrepareOptions, ops []churnOp) int {
	byStep := make([][]churnOp, len(in.chain))
	compactions := 0
	for _, o := range ops {
		r.attempted++
		if o.err != nil {
			r.problem("step %d: %v", o.step, o.err)
			continue
		}
		byStep[o.step] = append(byStep[o.step], o)
		if o.compacted {
			compactions++
		}
	}
	last := ops[len(ops)-1]
	cur, err := materialize(in.ds.Instance, nil)
	if err != nil {
		r.problem("materialize: %v", err)
		return compactions
	}
	var removed []bool
	isOverlay := func(s par.Similarity) bool { _, ok := s.(*par.DeltaSim); return ok }
	for j := 0; j <= maxStep(ops); j++ {
		merged, nr, err := phocus.MergeDelta(cur, removed, in.chain[j])
		if err == nil {
			merged, err = materialize(merged, isOverlay)
		}
		if err != nil {
			r.problem("merge step %d: %v", j, err)
			return compactions
		}
		cur, removed = merged, nr
		for _, o := range byStep[j] {
			if !r.gate.check(fmt.Sprintf("step%d", j), cur, resultAnswer(o.res, in.stepBudget(j))) {
				r.failed++
			}
		}
		if j == last.step && last.err == nil {
			r.compareCold(cur, opts, last, in.stepBudget(j))
		}
	}
	return compactions
}

// compareCold checks that the churned Prepared answers exactly like a cold
// Prepare of the merged archive.
func (r *run) compareCold(merged *par.Instance, opts phocus.PrepareOptions, live churnOp, budget float64) {
	r.attempted++
	opts.InstanceDigest = "cold"
	cold, err := phocus.Prepare(context.Background(), &dataset.Dataset{Instance: merged}, opts)
	if err != nil {
		r.problem("cold prepare at step %d: %v", live.step, err)
		return
	}
	res, err := cold.Run(context.Background(), phocus.RunOptions{Budget: budget})
	if err != nil {
		r.problem("cold run at step %d: %v", live.step, err)
		return
	}
	if !sameAnswer(resultAnswer(res, budget), resultAnswer(live.res, budget)) {
		r.problem("step %d: churned selection (score %v, %d photos) differs from cold Prepare (score %v, %d photos)",
			live.step, live.res.Solution.Score, len(live.res.Solution.Photos), res.Solution.Score, len(res.Solution.Photos))
	}
}

func maxStep(ops []churnOp) int {
	m := 0
	for _, o := range ops {
		m = max(m, o.step)
	}
	return m
}
