// Package bench holds the repository-level benchmark suite: one testing.B
// benchmark per paper table/figure (each drives the corresponding
// experiment at a reduced scale; run `go run ./cmd/phocus-bench -scale 1`
// for paper-sized datasets) plus micro-benchmarks of the core operations
// whose costs the paper's complexity analysis discusses.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"phocus/internal/baselines"
	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/experiments"
	"phocus/internal/gomaxprocs"
	"phocus/internal/lsh"
	"phocus/internal/par"
	"phocus/internal/phocus"
	"phocus/internal/sparsify"
)

// benchCfg keeps per-iteration work small enough for `go test -bench`.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.02, Seed: 0}
}

func benchmarkExperiment(b *testing.B, name string) {
	run := experiments.Find(name)
	if run == nil {
		b.Fatalf("experiment %q not registered", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := run(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Datasets(b *testing.B) { benchmarkExperiment(b, "table2") }
func BenchmarkFig5a(b *testing.B)          { benchmarkExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)          { benchmarkExperiment(b, "fig5b") }
func BenchmarkFig5c(b *testing.B)          { benchmarkExperiment(b, "fig5c") }
func BenchmarkFig5d(b *testing.B)          { benchmarkExperiment(b, "fig5d") }
func BenchmarkFig5e(b *testing.B)          { benchmarkExperiment(b, "fig5e") }
func BenchmarkFig5f(b *testing.B)          { benchmarkExperiment(b, "fig5f") }
func BenchmarkFig5g(b *testing.B)          { benchmarkExperiment(b, "fig5g") }
func BenchmarkFig5h(b *testing.B)          { benchmarkExperiment(b, "fig5h") }
func BenchmarkSmallBudget(b *testing.B)    { benchmarkExperiment(b, "smallbudget") }
func BenchmarkJudgments(b *testing.B)      { benchmarkExperiment(b, "judgments") }
func BenchmarkOnlineBound(b *testing.B)    { benchmarkExperiment(b, "onlinebound") }
func BenchmarkTauSweep(b *testing.B)       { benchmarkExperiment(b, "tau") }
func BenchmarkAblationUCvsCB(b *testing.B) { benchmarkExperiment(b, "ablation") }
func BenchmarkCompression(b *testing.B)    { benchmarkExperiment(b, "compression") }
func BenchmarkStreaming(b *testing.B)      { benchmarkExperiment(b, "streaming") }
func BenchmarkCaching(b *testing.B)        { benchmarkExperiment(b, "caching") }
func BenchmarkDynamic(b *testing.B)        { benchmarkExperiment(b, "dynamic") }
func BenchmarkScaling(b *testing.B)        { benchmarkExperiment(b, "scaling") }
func BenchmarkVariance(b *testing.B)       { benchmarkExperiment(b, "variance") }

// ---- micro-benchmarks of the core operations ----

func benchInstance(b *testing.B, photos int) *dataset.Dataset {
	b.Helper()
	ds, err := dataset.GeneratePublic(dataset.PublicSpec{
		Name: "bench", NumPhotos: photos, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.SetBudget(0.2 * ds.Instance.TotalCost()); err != nil {
		b.Fatal(err)
	}
	// Compile the gain kernel here, outside every timed region.
	ds.Instance.Kernel()
	return ds
}

// BenchmarkEvaluatorGain measures one marginal-gain evaluation on the
// compiled kernel — the cost unit of the paper's Ω(B·n⁴) vs O(B·n)
// comparison.
func BenchmarkEvaluatorGain(b *testing.B) {
	ds := benchInstance(b, 1000)
	e := par.NewEvaluator(ds.Instance)
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < 50; p++ {
		e.Add(par.PhotoID(rng.Intn(1000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Gain(par.PhotoID(i % 1000))
	}
}

// BenchmarkLazyGreedy solves a P-1K-sized instance end to end with CELF.
// Every iteration must select the photos of an untimed first solve at the
// same score, which the benchmark asserts outside the timed region.
func BenchmarkLazyGreedy(b *testing.B) {
	ds := benchInstance(b, 1000)
	want, _, err := celf.LazyGreedy(context.Background(), ds.Instance, celf.CB, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, _, err := celf.LazyGreedy(context.Background(), ds.Instance, celf.CB, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if sol.Score != want.Score || len(sol.Photos) != len(want.Photos) {
			b.Fatalf("solution changed: score %v/%d photos, want %v/%d",
				sol.Score, len(sol.Photos), want.Score, len(want.Photos))
		}
		for j := range sol.Photos {
			if sol.Photos[j] != want.Photos[j] {
				b.Fatalf("selection diverged at %d", j)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkEagerGreedy is the non-lazy ablation counterpart.
func BenchmarkEagerGreedy(b *testing.B) {
	ds := benchInstance(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := celf.EagerGreedy(ds.Instance, celf.CB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWorkers runs the full Algorithm 1 solver at increasing
// GOMAXPROCS on the same instance; the sub-benchmark ratios are the
// parallel speedup of running UC and CB concurrently (GOMAXPROCS 1 runs
// them one after the other).
func BenchmarkSolveWorkers(b *testing.B) {
	ds := benchInstance(b, 1000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			gomaxprocs.Set(b, workers)
			var s celf.Solver
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(context.Background(), ds.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparsifyExact measures all-pairs τ-sparsification at increasing
// GOMAXPROCS; per-subset independence makes this close to embarrassingly
// parallel.
func BenchmarkSparsifyExact(b *testing.B) {
	ds := benchInstance(b, 1000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			gomaxprocs.Set(b, workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparsify.Exact(ds.Instance, 0.75); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparsifyLSH measures SimHash-based sparsification of the same
// instance; the gap versus BenchmarkSparsifyExact/workers=1 is the paper's
// "roughly linear time" claim in action. Both run at GOMAXPROCS 1.
func BenchmarkSparsifyLSH(b *testing.B) {
	ds := benchInstance(b, 1000)
	gomaxprocs.Set(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := sparsify.WithLSH(rng, ds.Instance, ds.CtxVectors, 0.75); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedSweep measures the staged engine's reason to exist: a
// budget sweep that re-prepares for every budget (cold — a fresh Prepare +
// Run per budget) versus one that prepares once and reuses the
// Prepared across budgets (warm — what the server's prepared-instance
// cache buys). The per-sweep gap is the τ-sparsification cost paid once
// instead of once per budget; warm should run at least 2× faster.
func BenchmarkPreparedSweep(b *testing.B) {
	ds := benchInstance(b, 1000)
	total := ds.Instance.TotalCost()
	fracs := []float64{0.01, 0.02, 0.04, 0.06}
	ctx := context.Background()
	prep := phocus.PrepareOptions{Tau: 0.75}
	run := func(b *testing.B, p *phocus.Prepared, frac float64) {
		b.Helper()
		if _, err := p.Run(ctx, phocus.RunOptions{Budget: frac * total, SkipBound: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, frac := range fracs {
				p, err := phocus.Prepare(ctx, ds, prep)
				if err != nil {
					b.Fatal(err)
				}
				run(b, p, frac)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p, err := phocus.Prepare(ctx, ds, prep)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, frac := range fracs {
				run(b, p, frac)
			}
		}
	})
}

// BenchmarkSnapshotP100K measures the warm-restart trade of the persistent
// snapshot format on the P-100K public dataset at the bench suite's reduced
// scale: "coldprepare" re-runs the full Prepare stage (finalize + kernel
// compile + τ-threshold), "decode" rebuilds the Prepared from the encoded
// snapshot bytes (every section checksum-verified, the τ-kernel derived
// from the true kernel — this is the CPU cost a warm restart pays per
// cached instance), and "load" is the same
// through a file read. The coldprepare/decode ratio is the headline
// recorded in BENCH_snapshot.json (about 4× on this instance, and it grows
// with instance size: Prepare's similarity work is superlinear, the decode
// a linear verified pass plus a linear τ-threshold); "load" additionally
// includes storage I/O and tracks the disk, not the codec. Every path fans
// its kernel passes out over GOMAXPROCS.
func BenchmarkSnapshotP100K(b *testing.B) {
	spec := dataset.PublicSpecs(0.05)[4] // P-100K shape, 5000 photos
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := phocus.PrepareOptions{Tau: 0.4, InstanceDigest: "bench-snapshot"}

	// coldprepare runs before any other Prepare in this benchmark so its
	// first iteration pays the fresh-heap cost a real process restart pays
	// (a pre-grown heap flatters Prepare's slab allocations considerably).
	var p *phocus.Prepared
	b.Run("coldprepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := phocus.Prepare(ctx, ds, opts)
			if err != nil {
				b.Fatal(err)
			}
			p = q
		}
	})
	if p == nil { // coldprepare filtered out of the run
		var err error
		if p, err = phocus.Prepare(ctx, ds, opts); err != nil {
			b.Fatal(err)
		}
	}
	store, err := phocus.OpenSnapshotStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	path, size, err := store.Save(p)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := phocus.EncodeSnapshot(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			q, err := phocus.DecodeSnapshot(buf)
			if err != nil {
				b.Fatal(err)
			}
			if q.NumPhotos() != p.NumPhotos() {
				b.Fatalf("decoded %d photos, want %d", q.NumPhotos(), p.NumPhotos())
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			if _, err := phocus.LoadSnapshot(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchChurn builds a valid churn batch against a freshly prepared inst:
// nRemove removals (never retained photos, never the last live relevance
// mass of a subset) and nAdd added photos with memberships and explicit
// similarity rows. Same construction as the engine's differential tests,
// sized here to the 1% churn rate the delta path is designed around.
func benchChurn(rng *rand.Rand, inst *par.Instance, nRemove, nAdd int) *phocus.Delta {
	d := &phocus.Delta{}
	n := inst.NumPhotos()
	pending := map[par.PhotoID]bool{}

	liveMass := make([]int, len(inst.Subsets))
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		for mi := range q.Members {
			if q.Relevance[mi] > 0 {
				liveMass[qi]++
			}
		}
	}
	for tries := 0; len(d.Remove) < nRemove && tries < 50*nRemove; tries++ {
		p := par.PhotoID(rng.Intn(n))
		if pending[p] || inst.IsRetained(p) {
			continue
		}
		ok := true
		for _, oc := range inst.Occurrences(p) {
			if inst.Subsets[oc.Subset].Relevance[oc.Index] > 0 && liveMass[oc.Subset] < 2 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, oc := range inst.Occurrences(p) {
			if inst.Subsets[oc.Subset].Relevance[oc.Index] > 0 {
				liveMass[oc.Subset]--
			}
		}
		pending[p] = true
		d.Remove = append(d.Remove, p)
	}

	addedTo := map[int][]par.PhotoID{}
	for i := 0; i < nAdd; i++ {
		photo := par.PhotoID(n + i)
		ap := phocus.DeltaPhoto{Cost: 0.5 + 2*rng.Float64()}
		nq := 1 + rng.Intn(3)
		if nq > len(inst.Subsets) {
			nq = len(inst.Subsets)
		}
		qs := rng.Perm(len(inst.Subsets))[:nq]
		sort.Ints(qs)
		for _, qi := range qs {
			m := phocus.DeltaMembership{Subset: qi, Relevance: 0.1 + rng.Float64()}
			q := &inst.Subsets[qi]
			for _, p := range q.Members {
				if pending[p] {
					continue
				}
				if rng.Float64() < 0.5 {
					m.Neighbors = append(m.Neighbors, phocus.DeltaNeighbor{Photo: p, Sim: 0.05 + 0.9*rng.Float64()})
				}
			}
			for _, p := range addedTo[qi] {
				if rng.Float64() < 0.5 {
					m.Neighbors = append(m.Neighbors, phocus.DeltaNeighbor{Photo: p, Sim: 0.05 + 0.9*rng.Float64()})
				}
			}
			addedTo[qi] = append(addedTo[qi], photo)
			ap.Memberships = append(ap.Memberships, m)
		}
		d.Add = append(d.Add, ap)
	}
	return d
}

// BenchmarkDeltaVsColdPrepare measures the churn-maintenance trade on the
// P-100K public dataset at the bench suite's reduced scale: one 1% churn
// batch (25 removals + 25 additions against 5000 photos) applied in place
// through Prepared.ApplyDelta ("applydelta") versus re-running the full
// Prepare stage — finalize + τ-sparsify + kernel compile — on the merged
// post-churn instance ("coldprepare"). The coldprepare/applydelta ratio is
// the delta path's ≥10× headline recorded in BENCH_delta.json; it grows
// with instance size because Prepare's similarity work is superlinear while
// an apply touches only the churned photos' rows. Each applydelta iteration
// starts from a freshly decoded pre-churn snapshot (outside the timer) so
// the timed region is exactly one apply. Both paths must produce
// bit-identical Run selections — churn maintenance changes how fast the
// post-churn instance is reached, never what it solves to — asserted
// outside the timed regions. Both paths fan their kernel passes out over
// GOMAXPROCS.
func BenchmarkDeltaVsColdPrepare(b *testing.B) {
	spec := dataset.PublicSpecs(0.05)[4] // P-100K shape, 5000 photos
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := phocus.PrepareOptions{Tau: 0.4, InstanceDigest: "bench-delta"}
	rng := rand.New(rand.NewSource(17))
	d := benchChurn(rng, ds.Instance, 25, 25)
	merged, _, err := phocus.MergeDelta(ds.Instance, nil, d)
	if err != nil {
		b.Fatal(err)
	}

	// coldprepare runs before any other Prepare in this benchmark so its
	// first iteration pays the fresh-heap cost the re-prepare alternative
	// would pay in production (see BenchmarkSnapshotP100K).
	var cold *phocus.Prepared
	b.Run("coldprepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := phocus.Prepare(ctx, &dataset.Dataset{Instance: merged}, opts)
			if err != nil {
				b.Fatal(err)
			}
			cold = q
		}
	})
	if cold == nil { // coldprepare filtered out of the run
		if cold, err = phocus.Prepare(ctx, &dataset.Dataset{Instance: merged}, opts); err != nil {
			b.Fatal(err)
		}
	}

	pre, err := phocus.Prepare(ctx, ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := phocus.EncodeSnapshot(pre)
	if err != nil {
		b.Fatal(err)
	}
	var live *phocus.Prepared
	apply := func(b *testing.B) *phocus.Prepared {
		b.Helper()
		// A decoded Prepared's slabs are views into the buffer it was
		// decoded from, and ApplyDelta's tombstones write through them, so
		// every iteration decodes its own copy.
		q, err := phocus.DecodeSnapshot(bytes.Clone(buf))
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	b.Run("applydelta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			q := apply(b)
			b.StartTimer()
			stats, err := q.ApplyDelta(ctx, d)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if stats.NewFingerprint == stats.OldFingerprint {
				b.Fatal("fingerprint did not evolve")
			}
			b.StartTimer()
			live = q
		}
	})
	if live == nil { // applydelta filtered out of the run
		live = apply(b)
		if _, err := live.ApplyDelta(ctx, d); err != nil {
			b.Fatal(err)
		}
	}

	// Differential gate, outside all timing: identical selections at 1% churn.
	runOpts := phocus.RunOptions{Budget: 0.3 * merged.TotalCost(), SkipBound: true}
	rl, err := live.Run(ctx, runOpts)
	if err != nil {
		b.Fatal(err)
	}
	rc, err := cold.Run(ctx, runOpts)
	if err != nil {
		b.Fatal(err)
	}
	if rl.Solution.Score != rc.Solution.Score || len(rl.Solution.Photos) != len(rc.Solution.Photos) {
		b.Fatalf("post-churn solutions diverged: applydelta %v/%d photos, coldprepare %v/%d",
			rl.Solution.Score, len(rl.Solution.Photos), rc.Solution.Score, len(rc.Solution.Photos))
	}
	for i := range rl.Solution.Photos {
		if rl.Solution.Photos[i] != rc.Solution.Photos[i] {
			b.Fatalf("post-churn selection diverged at %d", i)
		}
	}
}

// BenchmarkSimHashSignature measures signature computation for one
// 32-dimensional embedding.
func BenchmarkSimHashSignature(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	h := lsh.New(rng, 32, 16, 8)
	ds := benchInstance(b, 100)
	v := ds.Global[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Signature(v)
	}
}

// BenchmarkOnlineBoundP1K measures the a-posteriori certificate pass.
func BenchmarkOnlineBoundP1K(b *testing.B) {
	ds := benchInstance(b, 1000)
	var s celf.Solver
	sol, err := s.Solve(context.Background(), ds.Instance)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		celf.OnlineBound(ds.Instance, sol.Photos)
	}
}

// BenchmarkKernelV2 is the Kernel v2 acceptance matrix: snapshot load
// (read and decode), end-to-end CELF on the canonical f64 kernel, both
// continuing a recorded trace and as a full recording pass, and the
// allocation-free warm RunInto — all at the P-100K bench shape. The CELF
// cells assert their selection against a plain Run outside the timed
// region. The celf, celf-full and allocs cells run at GOMAXPROCS 1, the
// sequential CELF path; run is the serving shape at the default.
func BenchmarkKernelV2(b *testing.B) {
	spec := dataset.PublicSpecs(0.05)[4] // P-100K shape, 5000 photos
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := phocus.PrepareOptions{Tau: 0.4, InstanceDigest: "bench-kernelv2"}
	p, err := phocus.Prepare(ctx, ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	store, err := phocus.OpenSnapshotStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	path, size, err := store.Save(p)
	if err != nil {
		b.Fatal(err)
	}

	budget := 0.3 * ds.Instance.TotalCost()
	ropts := phocus.RunOptions{Budget: budget, SkipBound: true}
	ref, err := p.Run(ctx, ropts)
	if err != nil {
		b.Fatal(err)
	}

	// Snapshot load: every iteration re-reads, checksums and decodes into
	// fresh slabs.
	b.Run("load=read", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			if _, err := phocus.LoadSnapshot(path); err != nil {
				b.Fatal(err)
			}
		}
	})

	// End-to-end CELF on the canonical f64 kernel. The selection assert
	// runs before the timer starts. The warm-up records a trace at the
	// cell's own budget, so every timed Run continues it (celf.Trace):
	// this cell, run and allocs time continued Runs, and celf-full prices
	// the full pass.
	b.Run("celf", func(b *testing.B) {
		gomaxprocs.Set(b, 1)
		var res phocus.Result
		if err := p.RunInto(ctx, ropts, &res); err != nil {
			b.Fatal(err)
		}
		if res.Solution.Score != ref.Solution.Score ||
			len(res.Solution.Photos) != len(ref.Solution.Photos) {
			b.Fatalf("selection diverged: %v/%d vs %v/%d",
				res.Solution.Score, len(res.Solution.Photos),
				ref.Solution.Score, len(ref.Solution.Photos))
		}
		for i := range res.Solution.Photos {
			if res.Solution.Photos[i] != ref.Solution.Photos[i] {
				b.Fatalf("selection diverged at %d", i)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.RunInto(ctx, ropts, &res); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The full seeded pass that records a trace, which a Run above every
	// budget solved since the last delta pays (every engine_churn op, the
	// first Run of a ladder): each Run's budget is one ulp above the one
	// before, across the benchmark's repeated invocations too, so every op
	// solves in full and still selects the reference photos.
	full := ropts
	b.Run("celf-full", func(b *testing.B) {
		gomaxprocs.Set(b, 1)
		var (
			res    phocus.Result
			prefix int
		)
		full.OnCELFStats = func(st celf.Stats) { prefix += st.TracePrefix }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			full.Budget = math.Nextafter(full.Budget, math.Inf(1))
			if err := p.RunInto(ctx, full, &res); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if prefix != 0 {
			b.Fatalf("full passes replayed %d trace selections", prefix)
		}
		if res.Solution.Score != ref.Solution.Score || fmt.Sprint(res.Solution.Photos) != fmt.Sprint(ref.Solution.Photos) {
			b.Fatalf("selection diverged: %v/%d vs %v/%d",
				res.Solution.Score, len(res.Solution.Photos),
				ref.Solution.Score, len(ref.Solution.Photos))
		}
	})

	// The serving shape: a warm RunInto at the default GOMAXPROCS with the
	// online bound on, as engine_sweep and the server run it. Its allocs/op
	// are the concurrent passes' and the bound's goroutine hand-offs.
	b.Run("run", func(b *testing.B) {
		opts := phocus.RunOptions{Budget: budget}
		var res phocus.Result
		if err := p.RunInto(ctx, opts, &res); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.RunInto(ctx, opts, &res); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The online bound alone, on a solution held fixed: a Run's Ŝ at the
	// 0.05 and 0.30 rungs, held by an evaluator over a view of the true
	// instance. The kernel's cover index is built, and a first sweep must
	// answer the Run's bound bit for bit, before the timer starts.
	b.Run("bound", func(b *testing.B) {
		for _, rung := range []float64{0.05, 0.3} {
			b.Run(fmt.Sprintf("rung=%g", rung), func(b *testing.B) {
				rb := rung * ds.Instance.TotalCost()
				res, err := p.Run(ctx, phocus.RunOptions{Budget: rb})
				if err != nil {
					b.Fatal(err)
				}
				view, err := p.View(rb)
				if err != nil {
					b.Fatal(err)
				}
				e := par.NewEvaluator(view)
				for _, ph := range res.Solution.Photos {
					e.Add(ph)
				}
				if view.Kernel().Covers() == nil {
					b.Fatal("no cover index")
				}
				var bs celf.BoundScratch
				if got := bs.OnlineBound(view, e, res.Archived); math.Float64bits(got) != math.Float64bits(res.OnlineBound) {
					b.Fatalf("bound %v, Run's bound %v", got, res.OnlineBound)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bs.OnlineBound(view, e, res.Archived)
				}
			})
		}
	})

	// The allocation-free gate: a warm RunInto at GOMAXPROCS 1 must report
	// 0 allocs/op.
	b.Run("allocs", func(b *testing.B) {
		gomaxprocs.Set(b, 1)
		var res phocus.Result
		if err := p.RunInto(ctx, ropts, &res); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.RunInto(ctx, ropts, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFinalizeCompile prices compiling the gain kernel inside Finalize:
// Finalize alone against Finalize followed by CompileKernel, on the P-1K
// instance as the wire decoder builds it and on the scaled P-100K instance
// (5000 photos). Each op finalizes a fresh shallow view of the decoded
// subsets, the way Prepare finalizes its base view, so no iteration reuses
// an occurrence index. Run with -benchmem: the compile's allocations are
// the memory every finalized instance would carry. The prepare cell is a
// whole cold phocus.Prepare at τ 0.4 of the same instance — the server's
// wire path on P-1K, the engine's path over the generator's vector
// similarities on P-100K — finalize, true kernel, exact sparsification
// over its rows and the sparse kernel. The threshold cell is that
// sparsification alone: the compiled true kernel thresholded at τ 0.4. The
// greedy-nr-compile cell (P-100K only) compiles the Greedy-NR baseline's
// surrogate, every subset's similarity par.UniformSim, whose B/op is the
// kernel the direct-solver experiments build for it. The covers cell prices
// the cover index the first bounded Run builds on the compiled kernel:
// each op reassembles a fresh kernel over the compiled slabs untimed, then
// builds its index.
func BenchmarkFinalizeCompile(b *testing.B) {
	p1k := dataset.PublicSpecs(1)[0]
	p1k.RetainFrac = 0.02
	for _, tc := range []struct {
		name string
		spec dataset.PublicSpec
		wire bool
	}{
		{"p1k-wire", p1k, true},
		{"p100k-0.05", dataset.PublicSpecs(0.05)[4], false},
	} {
		ds, err := dataset.GeneratePublic(tc.spec)
		if err != nil {
			b.Fatal(err)
		}
		inst := ds.Instance
		if tc.wire {
			var buf bytes.Buffer
			if err := par.WriteJSON(&buf, inst); err != nil {
				b.Fatal(err)
			}
			if inst, _, err = par.DecodeJSONVectors(buf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
		finalize := func(b *testing.B) *par.Instance {
			v := &par.Instance{Cost: inst.Cost, Retained: inst.Retained, Budget: inst.TotalCost(), Subsets: inst.Subsets}
			if err := v.Finalize(); err != nil {
				b.Fatal(err)
			}
			return v
		}
		b.Run(tc.name+"/finalize", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				finalize(b)
			}
		})
		b.Run(tc.name+"/finalize+compile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if k := par.CompileKernel(finalize(b)); k.Rows() == 0 {
					b.Fatal("empty kernel")
				}
			}
		})
		b.Run(tc.name+"/prepare", func(b *testing.B) {
			in := &dataset.Dataset{Instance: inst}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := phocus.Prepare(context.Background(), in, phocus.PrepareOptions{Tau: 0.4}); err != nil {
					b.Fatal(err)
				}
			}
		})
		kb := par.CompileKernel(finalize(b))
		b.Run(tc.name+"/threshold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ks, _, _ := kb.Threshold(0.4); ks.Rows() != kb.Rows() {
					b.Fatal("thresholded kernel lost rows")
				}
			}
		})
		if !tc.wire {
			nr, err := baselines.NewGreedyNR().Surrogate(finalize(b))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tc.name+"/greedy-nr-compile", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if k := par.CompileKernel(nr); k.Rows() == 0 {
						b.Fatal("empty kernel")
					}
				}
			})
		}
		slabs := kb.Slabs()
		b.Run(tc.name+"/covers", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k, err := par.KernelFromSlabs(slabs)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if k.Covers() == nil {
					b.Fatal("no cover index")
				}
			}
		})
	}
}
