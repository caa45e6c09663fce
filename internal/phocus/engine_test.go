package phocus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/gomaxprocs"
	"phocus/internal/obs"
	"phocus/internal/par"
)

// sweepDataset builds a mid-sized studio dataset for prepare/run sweeps.
func sweepDataset(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	photos, _ := studio(seed, 4, 6)
	var members []int
	for i := range photos {
		members = append(members, i)
	}
	ds, err := BuildDirect(photos, []SubsetSpec{
		{Name: "a", Weight: 1, Members: members},
		{Name: "b", Weight: 2, Members: members[:12]},
		{Name: "c", Weight: 1, Members: members[8:]},
	}, BuildOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// prepareRun is the one-shot solve: a fresh Prepare and a single Run.
func prepareRun(ds *dataset.Dataset, popts PrepareOptions, ropts RunOptions) (*Result, error) {
	p, err := Prepare(context.Background(), ds, popts)
	if err != nil {
		return nil, err
	}
	return p.Run(context.Background(), ropts)
}

// TestPrepareRunMatchesSolve is the staged engine's equivalence guarantee:
// preparing once and running a budget sweep yields exactly the results of a
// fresh Prepare + Run at each budget — at GOMAXPROCS 1, 2 and 8, in all
// three sparsification modes (none, exact τ, LSH τ).
func TestPrepareRunMatchesSolve(t *testing.T) {
	ds := sweepDataset(t, 11)
	total := ds.Instance.TotalCost()
	modes := []struct {
		name string
		prep PrepareOptions
	}{
		{"dense", PrepareOptions{}},
		{"exact-sparsify", PrepareOptions{Tau: 0.5}},
		{"lsh-sparsify", PrepareOptions{Tau: 0.5, UseLSH: true, Seed: 3}},
	}
	for _, mode := range modes {
		gomaxprocs.Each(t, func(workers int) {
			opts := mode.prep
			p, err := Prepare(context.Background(), ds, opts)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: Prepare: %v", mode.name, workers, err)
			}
			for _, frac := range []float64{0.2, 0.4, 0.7} {
				budget := frac * total
				got, err := p.Run(context.Background(), RunOptions{Budget: budget})
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d budget=%.0f%%: Run: %v", mode.name, workers, 100*frac, err)
				}
				want, err := prepareRun(ds, opts, RunOptions{Budget: budget})
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d budget=%.0f%%: fresh Prepare + Run: %v", mode.name, workers, 100*frac, err)
				}
				if got.Solution.Score != want.Solution.Score ||
					got.OnlineBound != want.OnlineBound ||
					len(got.Solution.Photos) != len(want.Solution.Photos) {
					t.Fatalf("%s GOMAXPROCS=%d budget=%.0f%%: Run %.6f/%d (bound %.6f) vs fresh %.6f/%d (bound %.6f)",
						mode.name, workers, 100*frac,
						got.Solution.Score, len(got.Solution.Photos), got.OnlineBound,
						want.Solution.Score, len(want.Solution.Photos), want.OnlineBound)
				}
				for i := range got.Solution.Photos {
					if got.Solution.Photos[i] != want.Solution.Photos[i] {
						t.Fatalf("%s GOMAXPROCS=%d budget=%.0f%%: selections diverge: %v vs %v",
							mode.name, workers, 100*frac, got.Solution.Photos, want.Solution.Photos)
					}
				}
			}
		})
	}
}

// TestPreparedCompilesKernel pins the Prepare-time kernel compilation: the
// compiled kernels exist on both the dense and sparsified paths, their bytes
// are part of SizeBytes, the build time is part of PrepTime, and the
// phocus_kernel_build_seconds metric is recorded when a registry is wired.
func TestPreparedCompilesKernel(t *testing.T) {
	ds := sweepDataset(t, 13)
	for _, mode := range []struct {
		name string
		prep PrepareOptions
	}{
		{"dense", PrepareOptions{}},
		{"exact-sparsify", PrepareOptions{Tau: 0.5}},
	} {
		reg := obs.NewRegistry()
		opts := mode.prep
		opts.Metrics = reg
		p, err := Prepare(context.Background(), ds, opts)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", mode.name, err)
		}
		if p.KernelBytes() <= 0 {
			t.Errorf("%s: KernelBytes = %d, want > 0", mode.name, p.KernelBytes())
		}
		if p.SizeBytes() < p.KernelBytes() {
			t.Errorf("%s: SizeBytes %d < KernelBytes %d", mode.name, p.SizeBytes(), p.KernelBytes())
		}
		if p.KernelBuildTime <= 0 || p.KernelBuildTime > p.PrepTime {
			t.Errorf("%s: KernelBuildTime %v outside (0, PrepTime=%v]", mode.name, p.KernelBuildTime, p.PrepTime)
		}
		if got := reg.Histogram("phocus_kernel_build_seconds", nil).Count(); got != 1 {
			t.Errorf("%s: phocus_kernel_build_seconds count = %d, want 1", mode.name, got)
		}
	}
	// No registry wired: Prepare must not blow up, kernels still compile.
	p, err := Prepare(context.Background(), ds, PrepareOptions{})
	if err != nil {
		t.Fatalf("Prepare without Metrics: %v", err)
	}
	if p.KernelBytes() <= 0 {
		t.Error("Prepare without Metrics compiled no kernel")
	}
}

// firstCallAllocs counts the heap allocations of a single call of f. Unlike
// testing.AllocsPerRun it makes no warm-up call first, so a lazy kernel
// compile on that one call shows.
func firstCallAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS 1 pin: the
// heap allocations per call of f over runs calls, after one warm-up call,
// at the caller's GOMAXPROCS, rounded down as AllocsPerRun rounds.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// requireKernelsInPlace fails t unless p's base template — and its solve
// template when p is sparsified — already holds its kernel, so the next
// Run compiles nothing, and a ViewInto view of each template runs that same
// kernel. It also requires the templates to share one finalized layout
// (requireSharedLayout).
func requireKernelsInPlace(t *testing.T, label string, p *Prepared) {
	t.Helper()
	requireSharedLayout(t, label, p)
	tmpls := []*par.Instance{p.base}
	if p.solveTmpl != p.base {
		tmpls = append(tmpls, p.solveTmpl)
	}
	for i, tmpl := range tmpls {
		if !raceEnabled {
			if n := firstCallAllocs(func() { tmpl.Kernel() }); n != 0 {
				t.Fatalf("%s: template %d compiled its kernel lazily (%d allocs)", label, i, n)
			}
		}
		var v par.Instance
		if err := tmpl.ViewInto(&v, tmpl.TotalCost()); err != nil {
			t.Fatalf("%s: ViewInto: %v", label, err)
		}
		if v.Kernel() != tmpl.Kernel() {
			t.Fatalf("%s: template %d view runs another kernel than its template", label, i)
		}
	}
}

// requireSharedLayout fails t unless p's solve template is its base at τ 0,
// and otherwise is the base read through a kernel of its own: the same
// occurrence index and retained set, not a second finalized layout.
func requireSharedLayout(t *testing.T, label string, p *Prepared) {
	t.Helper()
	if p.opts.Tau == 0 {
		if p.solveTmpl != p.base {
			t.Fatalf("%s: a τ-0 Prepared's solve template is not its base", label)
		}
		return
	}
	if p.solveTmpl == p.base || p.solveTmpl.Kernel() == p.base.Kernel() {
		t.Fatalf("%s: a τ-sparsified Prepared solves through its base kernel", label)
	}
	// The fields are unexported; reflect reads their backing arrays.
	base, tmpl := reflect.ValueOf(p.base).Elem(), reflect.ValueOf(p.solveTmpl).Elem()
	for _, field := range []string{"occ", "retainedSet"} {
		if b, s := base.FieldByName(field).Pointer(), tmpl.FieldByName(field).Pointer(); b == 0 || b != s {
			t.Fatalf("%s: the solve template has its own %s (%#x), not the base's (%#x)", label, field, s, b)
		}
	}
}

// TestEnginePathsNeverCompileLazily pins where the engine's kernels come
// from: every way a Prepared is built or changed — cold Prepare, snapshot
// load, ApplyDelta with and without compaction, a forced compaction —
// leaves each template with its kernel compiled or attached, over one shared
// layout. A path that forgot to attach would still solve correctly, but the
// next Run would pay a full recompile.
func TestEnginePathsNeverCompileLazily(t *testing.T) {
	ctx := context.Background()
	lsh, err := Prepare(ctx, sweepDataset(t, 11), PrepareOptions{Tau: 0.5, UseLSH: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireKernelsInPlace(t, "LSH Prepare", lsh)
	for _, tau := range []float64{0, 0.3} {
		t.Run(fmt.Sprintf("tau=%g", tau), func(t *testing.T) {
			p, rng := preparedForSnapDelta(t, tau)
			requireKernelsInPlace(t, "cold Prepare", p)

			buf, err := EncodeSnapshot(p)
			if err != nil {
				t.Fatal(err)
			}
			q, err := DecodeSnapshot(buf)
			if err != nil {
				t.Fatal(err)
			}
			requireKernelsInPlace(t, "DecodeSnapshot", q)

			store, err := OpenSnapshotStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := store.Save(p); err != nil {
				t.Fatal(err)
			}
			fp, _ := p.Fingerprint()
			loaded, err := store.Load(fp)
			if err != nil {
				t.Fatal(err)
			}
			requireKernelsInPlace(t, "store load", loaded)

			// Without compaction a delta carries the kernels over, mutated in
			// place, rather than compiling new ones anywhere.
			kb, ks := p.base.Kernel(), solveKernel(p)
			stats, err := p.ApplyDelta(ctx, randomChurn(rng, p.base, p.removed, 1, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if stats.Compacted {
				t.Fatal("a one-photo delta compacted; the overlay path went untested")
			}
			requireKernelsInPlace(t, "ApplyDelta overlay", p)
			if p.base.Kernel() != kb || solveKernel(p) != ks {
				t.Fatal("ApplyDelta replaced a kernel instead of carrying its overlay")
			}

			for batch := 0; !stats.Compacted; batch++ {
				d := randomChurn(rng, p.base, p.removed, 3, 0, false)
				if batch == 20 || len(d.Remove) == 0 {
					t.Fatal("removal churn never triggered a compaction")
				}
				if stats, err = p.ApplyDelta(ctx, d); err != nil {
					t.Fatal(err)
				}
			}
			requireKernelsInPlace(t, "ApplyDelta compaction", p)

			if err := compactNow(p); err != nil {
				t.Fatal(err)
			}
			requireKernelsInPlace(t, "forced compaction", p)
		})
	}
}

// TestRunConcurrentSharing exercises the documented concurrency contract:
// many Runs against one Prepared, in parallel, each with its own budget,
// must all match their one-shot equivalents.
func TestRunConcurrentSharing(t *testing.T) {
	ds := sweepDataset(t, 12)
	total := ds.Instance.TotalCost()
	p, err := Prepare(context.Background(), ds, PrepareOptions{Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	want := make([]*Result, len(fracs))
	for i, frac := range fracs {
		want[i], err = prepareRun(ds, PrepareOptions{Tau: 0.5}, RunOptions{Budget: frac * total})
		if err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, len(fracs))
	for i, frac := range fracs {
		go func(i int, frac float64) {
			got, err := p.Run(context.Background(), RunOptions{Budget: frac * total})
			if err != nil {
				errs <- err
				return
			}
			if got.Solution.Score != want[i].Solution.Score {
				errs <- errors.New("concurrent Run diverged from a fresh Prepare + Run")
				return
			}
			errs <- nil
		}(i, frac)
	}
	for range fracs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentFirstRuns: bounded Runs racing on a fresh Prepared — the
// ones that pull and the ones that build the true kernel's cover index and
// sweep it — all answer what a fresh Prepare + Run answers, bit for bit,
// and leave one index behind. Under -race it also checks the build's
// publication.
func TestConcurrentFirstRuns(t *testing.T) {
	ds := sweepDataset(t, 16)
	opts := RunOptions{Budget: 0.4 * ds.Instance.TotalCost()}
	want, err := prepareRun(ds, PrepareOptions{Tau: 0.5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(context.Background(), ds, PrepareOptions{Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	got := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.Run(context.Background(), opts)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if keyOf(got[i]) != keyOf(want) {
			t.Fatalf("run %d: %+v, fresh Prepare + Run %+v", i, keyOf(got[i]), keyOf(want))
		}
	}
	if p.base.Kernel().Covers() == nil {
		t.Fatal("no cover index after concurrent bounded Runs")
	}
}

// TestCompactCarriesCovers: a compaction recompiles the true kernel. When
// the old kernel had built its cover index, the new one builds its own
// inside the compaction, so no Run after it pays the build or pulls; the
// cache charge, which counted the index before any Run built it, and the
// Run's answer are unchanged. A Prepared that never swept leaves the new
// kernel's index to its Runs.
func TestCompactCarriesCovers(t *testing.T) {
	ctx := context.Background()
	ds := sweepDataset(t, 17)
	opts := RunOptions{Budget: 0.4 * ds.Instance.TotalCost()}
	built := func(p *Prepared) bool {
		_, ok := p.base.Kernel().CoverBytes()
		return ok
	}
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	charged := p.KernelBytes() // counts the index before it exists
	var want *Result
	for range 2 { // the second bounded Run builds the index
		if want, err = p.Run(ctx, opts); err != nil {
			t.Fatal(err)
		}
	}
	if !built(p) {
		t.Fatal("two bounded Runs left no cover index")
	}
	if got := p.KernelBytes(); got != charged {
		t.Fatalf("KernelBytes %d once the index is built, %d charged before", got, charged)
	}
	size := p.SizeBytes()
	if err := compactNow(p); err != nil {
		t.Fatal(err)
	}
	if !built(p) {
		t.Fatal("the compaction's kernel has no cover index")
	}
	if got := p.SizeBytes(); got != size {
		t.Fatalf("SizeBytes %d after the compaction, %d before", got, size)
	}
	got, err := p.Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(got) != keyOf(want) {
		t.Fatalf("after the compaction %+v, before %+v", keyOf(got), keyOf(want))
	}

	cold, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := compactNow(cold); err != nil {
		t.Fatal(err)
	}
	if built(cold) {
		t.Fatal("a compaction built a cover index no Run asked for")
	}
}

func TestPrepareNoCtxVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := par.Random(rng, par.RandomConfig{Photos: 20, Subsets: 8, BudgetFrac: 0.3})
	ds := &dataset.Dataset{Instance: inst} // wire-loaded datasets carry no vectors
	_, err := Prepare(context.Background(), ds, PrepareOptions{Tau: 0.5, UseLSH: true})
	if !errors.Is(err, ErrNoCtxVectors) {
		t.Fatalf("Prepare err = %v, want ErrNoCtxVectors", err)
	}
	// LSH without τ never sparsifies, so the missing vectors don't matter.
	if _, err := prepareRun(ds, PrepareOptions{UseLSH: true}, RunOptions{}); err != nil {
		t.Fatalf("Prepare + Run with tau=0: %v", err)
	}
}

// TestPrepareRejectsTauOutOfRange: τ must lie in [0, 1], NaN excluded:
// thresholding the true kernel above 1 would drop its self entries.
func TestPrepareRejectsTauOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := &dataset.Dataset{Instance: par.Random(rng, par.RandomConfig{Photos: 20, Subsets: 8, BudgetFrac: 0.3})}
	for _, tau := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if p, err := Prepare(context.Background(), ds, PrepareOptions{Tau: tau}); err == nil || p != nil {
			t.Errorf("Prepare at τ %g: %v, want an error", tau, err)
		}
	}
	if _, err := prepareRun(ds, PrepareOptions{Tau: 1}, RunOptions{}); err != nil {
		t.Fatalf("Prepare + Run at τ 1: %v", err)
	}
}

func TestFingerprint(t *testing.T) {
	ds := sweepDataset(t, 13)
	ctx := context.Background()
	fp := func(ds *dataset.Dataset, opts PrepareOptions) string {
		t.Helper()
		p, err := Prepare(ctx, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	base := fp(ds, PrepareOptions{Tau: 0.5})
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	if again := fp(ds, PrepareOptions{Tau: 0.5}); again != base {
		t.Error("fingerprint not stable across Prepare calls")
	}
	// Budget is a Run parameter: changing it must not change the identity.
	if err := ds.SetBudget(0.5 * ds.Instance.TotalCost()); err != nil {
		t.Fatal(err)
	}
	if rebudgeted := fp(ds, PrepareOptions{Tau: 0.5}); rebudgeted != base {
		t.Error("fingerprint depends on the instance budget")
	}
	// Every preparation parameter, and the instance's own S0, must diverge
	// the identity.
	inst := ds.Instance
	retained := &par.Instance{Cost: inst.Cost, Retained: []par.PhotoID{0}, Budget: inst.Budget, Subsets: inst.Subsets}
	if err := retained.Finalize(); err != nil {
		t.Fatal(err)
	}
	divergent := map[string]string{
		"tau":      fp(ds, PrepareOptions{Tau: 0.6}),
		"lsh":      fp(ds, PrepareOptions{Tau: 0.5, UseLSH: true}),
		"seed":     fp(ds, PrepareOptions{Tau: 0.5, UseLSH: true, Seed: 1}),
		"retained": fp(&dataset.Dataset{Instance: retained}, PrepareOptions{Tau: 0.5}),
	}
	seen := map[string]string{"base": base}
	for name, got := range divergent {
		for other, prev := range seen {
			if name != other && got == prev {
				t.Errorf("options %q and %q share a fingerprint", name, other)
			}
		}
		seen[name] = got
	}
	// A caller-supplied digest short-circuits serialization and feeds the
	// same combiner.
	if FingerprintFor("abc", PrepareOptions{Tau: 0.5}) == FingerprintFor("abd", PrepareOptions{Tau: 0.5}) {
		t.Error("digest not reflected in fingerprint")
	}
}

// TestPrepareKeepsCallerSimsAndFingerprint: Prepare points the Prepared's
// subsets at views of its kernels, and neither the content fingerprint nor
// the caller's dataset may notice. For a DenseSim instance, a wire-decoded
// SparseSim instance and a generator instance (similarities computed from
// vectors on demand), the fingerprint computed through the views equals
// the one computed from the source before Prepare, WriteBinary through the
// views emits the source's bytes, every view pair equals the source's bit
// for bit, and the caller's subsets still hold their own similarities.
func TestPrepareKeepsCallerSimsAndFingerprint(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	dense := par.Random(rng, par.RandomConfig{Photos: 40, Subsets: 8, RetainFrac: 0.1, SimDensity: 0.6})
	var wire bytes.Buffer
	if err := par.WriteJSON(&wire, dense); err != nil {
		t.Fatal(err)
	}
	decoded, err := par.ReadJSON(&wire)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dataset.GeneratePublic(dataset.PublicSpec{Name: "views", NumPhotos: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	binaryOf := func(inst *par.Instance) []byte {
		t.Helper()
		c := *inst
		c.Budget = 0
		var b bytes.Buffer
		if err := par.WriteBinary(&b, &c); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range []struct {
		name string
		inst *par.Instance
	}{{"dense", dense}, {"wire", decoded}, {"generator", gen.Instance}} {
		for _, tau := range []float64{0, 0.4} {
			t.Run(fmt.Sprintf("%s/tau=%g", tc.name, tau), func(t *testing.T) {
				src := tc.inst
				opts := PrepareOptions{Tau: tau}
				digest, err := InstanceDigest(src)
				if err != nil {
					t.Fatal(err)
				}
				want := FingerprintFor(digest, opts)
				wantBin := binaryOf(src)
				sims := make([]par.Similarity, len(src.Subsets))
				for qi := range src.Subsets {
					sims[qi] = src.Subsets[qi].Sim
				}

				p, err := Prepare(ctx, &dataset.Dataset{Instance: src}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for qi, s := range sims {
					got := src.Subsets[qi].Sim
					if reflect.TypeOf(got) != reflect.TypeOf(s) || (reflect.TypeOf(s).Comparable() && got != s) {
						t.Fatalf("subset %d: caller's similarity replaced by %T", qi, got)
					}
					view := p.base.Subsets[qi].Sim
					if name := fmt.Sprintf("%T", view); name != "*par.kernelSim" {
						t.Fatalf("subset %d: Prepared holds a %s, want a kernel view", qi, name)
					}
					k := s.Len()
					for i := 0; i < k; i++ {
						for j := 0; j < k; j++ {
							if a, b := s.Sim(i, j), view.Sim(i, j); math.Float64bits(a) != math.Float64bits(b) {
								t.Fatalf("subset %d: view Sim(%d,%d) = %v, source %v", qi, i, j, b, a)
							}
						}
					}
				}
				if p.solveTmpl != p.base {
					for qi := range p.solveTmpl.Subsets {
						if name := fmt.Sprintf("%T", p.solveTmpl.Subsets[qi].Sim); name != "*par.kernelSim" {
							t.Fatalf("sparse subset %d: Prepared holds a %s, want a kernel view", qi, name)
						}
					}
				}
				if got := binaryOf(p.base); !bytes.Equal(got, wantBin) {
					t.Fatalf("WriteBinary through the views: %d bytes differ from the source's %d", len(got), len(wantBin))
				}
				got, err := p.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Fingerprint %s, want %s from the source", got, want)
				}
			})
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ds := sweepDataset(t, 14)
	p, err := Prepare(context.Background(), ds, PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(canceled, RunOptions{Budget: 0.3 * ds.Instance.TotalCost()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if _, err := Prepare(canceled, ds, PrepareOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prepare err = %v, want context.Canceled", err)
	}
}

// lateCancelCtx reports no error for its first `live` Err calls and
// context.Canceled after: a context canceled while a Run is under way.
type lateCancelCtx struct {
	context.Context
	live int
}

func (c *lateCancelCtx) Err() error {
	if c.live > 0 {
		c.live--
		return nil
	}
	return context.Canceled
}

// TestRunCanceledBeforeS0Gains: a first Run canceled after its entry check
// (say, while it waited for another first Run's S0 pass) returns the
// context's error without computing the trace's S0 gains, and the next live
// Run fills the trace.
func TestRunCanceledBeforeS0Gains(t *testing.T) {
	ds := sweepDataset(t, 14)
	p, err := Prepare(context.Background(), ds, PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budget := 0.3 * ds.Instance.TotalCost()
	ctx := &lateCancelCtx{Context: context.Background(), live: 1}
	if _, err := p.Run(ctx, RunOptions{Budget: budget}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if p.trace != nil {
		t.Error("canceled first Run computed the S0 gains")
	}
	if _, err := p.Run(context.Background(), RunOptions{Budget: budget}); err != nil {
		t.Fatal(err)
	}
	if p.trace == nil || !p.trace.Covers(budget) {
		t.Error("live Run left no trace covering its budget")
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	ds := sweepDataset(t, 15)
	p, err := Prepare(context.Background(), ds, PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), RunOptions{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPipelineSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := par.Random(rng, par.RandomConfig{Photos: 18, Subsets: 8, BudgetFrac: 0.3})
	var s par.Solver = &PipelineSolver{}
	if s.Name() != "PHOcus" {
		t.Errorf("Name() = %q", s.Name())
	}
	sol, err := s.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prepareRun(&dataset.Dataset{Instance: inst}, PrepareOptions{}, RunOptions{Budget: inst.Budget, SkipBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Score != want.Solution.Score {
		t.Errorf("PipelineSolver %.6f vs engine %.6f", sol.Score, want.Solution.Score)
	}
}

// TestRunAllocs is the allocation-free Run gate: after one warm-up call, a
// steady-state CELF RunInto at GOMAXPROCS 1 performs zero heap allocations
// per run, with the online bound skipped or computed, and so does a ladder
// of budgets below the traced one, each Run continuing the trace. A Run at
// GOMAXPROCS 1 that finds a trace with no logs solves in full and
// allocates only the trace it records: the Trace and its two logs. At a
// larger GOMAXPROCS only the goroutine hand-offs of the concurrent CELF
// passes allocate, which stays under 100 objects per run; at GOMAXPROCS 2
// a Run with the online bound allocates no more than one without it, since
// the bound is one sequential sweep.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race CI lane")
	}
	ctx := context.Background()
	for _, tau := range []float64{0, 0.4} {
		t.Run(fmt.Sprintf("tau=%g", tau), func(t *testing.T) {
			ds := sweepDataset(t, 29)
			p, err := Prepare(ctx, ds, PrepareOptions{Tau: tau, InstanceDigest: "allocs"})
			if err != nil {
				t.Fatal(err)
			}
			total := ds.Instance.TotalCost()
			budget := 0.5 * total
			// A log-free trace of the solve template: installed before each
			// "seq-full" Run, it makes that Run solve in full and record.
			empty := celf.NewTrace(p.solveTmpl)
			measured := map[string]float64{}
			for _, tc := range []struct {
				name    string
				opts    RunOptions
				budgets []float64 // alternated run to run; {opts.Budget} when nil
				full    bool      // drop the trace's logs before every Run
				max     float64
				like    string // an earlier case this one allocates no more than
				procs   int    // GOMAXPROCS for the case; 0 keeps the default
			}{
				{"seq-nobound", RunOptions{Budget: budget, SkipBound: true}, nil, false, 0, "", 1},
				{"seq-bound", RunOptions{Budget: budget}, nil, false, 0, "", 1},
				{"default-bound", RunOptions{Budget: budget}, nil, false, 99, "", 0},
				{"seq-ladder", RunOptions{}, []float64{0.3 * total, 0.4 * total}, false, 0, "", 1},
				{"seq-full", RunOptions{Budget: budget, SkipBound: true}, nil, true, 3, "", 1},
				{"w2-nobound", RunOptions{Budget: budget, SkipBound: true}, nil, false, 99, "", 2},
				{"w2-bound", RunOptions{Budget: budget}, nil, false, 99, "w2-nobound", 2},
			} {
				t.Run(tc.name, func(t *testing.T) {
					if tc.procs > 0 {
						gomaxprocs.Set(t, tc.procs)
					}
					budgets := tc.budgets
					if budgets == nil {
						budgets = []float64{tc.opts.Budget}
					}
					opts := tc.opts
					var res Result
					warm := make([]runKey, len(budgets))
					for i, b := range budgets {
						opts.Budget = b
						if err := p.RunInto(ctx, opts, &res); err != nil {
							t.Fatal(err)
						}
						warm[i] = keyOf(&res)
					}
					for _, b := range budgets {
						if !p.trace.Covers(b) {
							t.Fatalf("no trace covers budget %g after the warm-up", b)
						}
					}
					runs := 0
					allocs := allocsPerRun(10, func() {
						opts.Budget = budgets[runs%len(budgets)]
						runs++
						if tc.full {
							p.trace = empty
						}
						if err := p.RunInto(ctx, opts, &res); err != nil {
							t.Fatal(err)
						}
						if tc.full && p.trace == empty {
							t.Fatal("a full Run recorded no trace")
						}
					})
					measured[tc.name] = allocs
					if allocs > tc.max {
						t.Fatalf("warm RunInto allocates %v times per run, want at most %v", allocs, tc.max)
					}
					if tc.like != "" && allocs > measured[tc.like] {
						t.Fatalf("warm RunInto allocates %v times per run, %s %v", allocs, tc.like, measured[tc.like])
					}
					if got := keyOf(&res); got != warm[(runs-1)%len(budgets)] {
						t.Fatalf("warm runs diverged: %+v vs %+v", got, warm[(runs-1)%len(budgets)])
					}
				})
			}
		})
	}
}

// TestRunIntoMatchesRun pins that the scratch-reusing entry point and the
// allocating wrapper agree field for field, including when the caller's
// Result still holds a previous run's slices.
func TestRunIntoMatchesRun(t *testing.T) {
	ctx := context.Background()
	ds := sweepDataset(t, 31)
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.4, InstanceDigest: "runinto"})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		opts := RunOptions{Budget: frac * ds.Instance.TotalCost()}
		want, err := p.Run(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RunInto(ctx, opts, &res); err != nil {
			t.Fatal(err)
		}
		if keyOf(&res) != keyOf(want) {
			t.Fatalf("budget %.0f%%: RunInto %+v != Run %+v", 100*frac, keyOf(&res), keyOf(want))
		}
		if fmt.Sprint(res.Archived) != fmt.Sprint(want.Archived) {
			t.Fatalf("budget %.0f%%: Archived %v != %v", 100*frac, res.Archived, want.Archived)
		}
	}
}

// TestRunObserverMatchesUnseeded: a Run above its Prepared's trace seeds
// CELF from the trace's S0 gains and records both passes as the new trace.
// At every GOMAXPROCS that trace equals the one a celf.Solver records from
// a fresh trace of the same budgeted view, whose pass logs celf's tests
// hold to the unseeded passes minus their initial recomputations. A Run the
// trace covers continues it without replacing it.
func TestRunObserverMatchesUnseeded(t *testing.T) {
	ctx := context.Background()
	ds := sweepDataset(t, 37)
	for _, tau := range []float64{0, 0.4} {
		p, err := Prepare(ctx, ds, PrepareOptions{Tau: tau, InstanceDigest: "observer"})
		if err != nil {
			t.Fatal(err)
		}
		tmpl := p.solveTmpl
		gomaxprocs.Each(t, func(workers int) {
			p.trace = nil
			for _, frac := range []float64{0.2, 0.5} {
				budget := frac * ds.Instance.TotalCost()
				if _, err := p.Run(ctx, RunOptions{Budget: budget, SkipBound: true}); err != nil {
					t.Fatal(err)
				}
				var view par.Instance
				if err := tmpl.ViewInto(&view, budget); err != nil {
					t.Fatal(err)
				}
				s := celf.Solver{Trace: celf.NewTrace(&view)}
				if _, err := s.Solve(ctx, &view); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p.trace, s.Trace) {
					t.Fatalf("tau=%g GOMAXPROCS=%d f=%g: the Run recorded another trace than the solver's", tau, workers, frac)
				}
			}
			traced := p.trace
			if _, err := p.Run(ctx, RunOptions{Budget: 0.2 * ds.Instance.TotalCost(), SkipBound: true}); err != nil {
				t.Fatal(err)
			}
			if p.trace != traced {
				t.Fatalf("tau=%g GOMAXPROCS=%d: a Run the trace covers replaced it", tau, workers)
			}
		})
	}
}
