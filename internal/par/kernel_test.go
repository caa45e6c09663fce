package par

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phocus/internal/gomaxprocs"
)

// simVariants rewrites every subset's similarity to a different
// implementation over the same members, so the kernel differential runs
// against each Similarity the repository ships. The dense variant keeps the
// generator's DenseSim; sparse rebuilds the same positive pairs into a
// SparseSim (a NeighborLister); fn hides the dense matrix behind FuncSim
// (no NeighborLister, forces the full-scan compile path); uniform and
// identity are the degenerate extremes.
var simVariants = map[string]func(k int, dense Similarity) Similarity{
	"dense": func(k int, dense Similarity) Similarity { return dense },
	"sparse": func(k int, dense Similarity) Similarity {
		b := NewSparseSimBuilder(k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if s := dense.Sim(i, j); s > 0 {
					b.Add(i, j, s)
				}
			}
		}
		return b.Build()
	},
	"fn":       func(k int, dense Similarity) Similarity { return FuncSim{N: k, F: dense.Sim} },
	"uniform":  func(k int, dense Similarity) Similarity { return UniformSim{N: k} },
	"identity": func(k int, dense Similarity) Similarity { return IdentitySim{N: k} },
}

// withSims returns a finalized copy of inst whose subset similarities are
// rewritten through the variant function.
func withSims(t testing.TB, inst *Instance, variant func(k int, dense Similarity) Similarity) *Instance {
	out := &Instance{
		Cost:     inst.Cost,
		Retained: inst.Retained,
		Budget:   inst.Budget,
		Subsets:  make([]Subset, len(inst.Subsets)),
	}
	for qi := range inst.Subsets {
		q := inst.Subsets[qi]
		q.Sim = variant(len(q.Members), q.Sim)
		out.Subsets[qi] = q
	}
	if err := out.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return out
}

// allPhotos lists every photo of inst in ID order.
func allPhotos(inst *Instance) []PhotoID {
	all := make([]PhotoID, inst.NumPhotos())
	for p := range all {
		all[p] = PhotoID(p)
	}
	return all
}

// sameGains fails t unless the production Evaluator's GainsInto equals the
// jagged reference's Gain for every photo, bit for bit, at GOMAXPROCS 1, 2
// and 8.
func sameGains(t testing.TB, ref *jaggedEvaluator, ker *Evaluator, step string) {
	t.Helper()
	all := allPhotos(ref.inst)
	got := make([]float64, len(all))
	gomaxprocs.Each(t, func(n int) {
		ker.GainsInto(got, all)
		for i, p := range all {
			if want := ref.Gain(p); got[i] != want {
				t.Fatalf("%s GOMAXPROCS=%d: GainsInto[%d] %v (kernel) != %v (jagged)", step, n, i, got[i], want)
			}
		}
	})
}

// TestKernelDifferential drives the jagged reference evaluator and the
// production (kernel) Evaluator through identical Seed/Gain/Gains/Add/Clone
// sequences on random instances across every similarity implementation and
// asserts bit-identical (==, not within-tolerance) results: selection
// invariance for every solver follows from this.
func TestKernelDifferential(t *testing.T) {
	for name, variant := range simVariants {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				base := Random(rng, RandomConfig{
					Photos:     30,
					Subsets:    8,
					MaxSubset:  10,
					RetainFrac: 0.1,
					SimDensity: 0.6,
				})
				inst := withSims(t, base, variant)

				ref := newJaggedEvaluator(inst)
				ker := NewEvaluator(inst)
				if g1, g2 := ref.Seed(), ker.Seed(); g1 != g2 {
					t.Fatalf("trial %d: Seed %v (jagged) != %v (kernel)", trial, g1, g2)
				}
				sameGains(t, ref, ker, fmt.Sprintf("trial %d after seed", trial))

				for step := 0; step < 12; step++ {
					p := PhotoID(rng.Intn(inst.NumPhotos()))
					if g1, g2 := ref.Gain(p), ker.Gain(p); g1 != g2 {
						t.Fatalf("trial %d step %d: Gain(%d) %v (jagged) != %v (kernel)", trial, step, p, g1, g2)
					}
					if g1, g2 := ref.Add(p), ker.Add(p); g1 != g2 {
						t.Fatalf("trial %d step %d: Add(%d) %v (jagged) != %v (kernel)", trial, step, p, g1, g2)
					}
					if s1, s2 := ref.Score(), ker.Score(); s1 != s2 {
						t.Fatalf("trial %d step %d: Score %v (jagged) != %v (kernel)", trial, step, s1, s2)
					}
				}
				sameGains(t, ref, ker, fmt.Sprintf("trial %d after adds", trial))

				// Clones must carry their evaluator's state and agree too.
				ref, ker = ref.Clone(), ker.Clone()
				p := PhotoID(rng.Intn(inst.NumPhotos()))
				if g1, g2 := ref.Add(p), ker.Add(p); g1 != g2 {
					t.Fatalf("trial %d: post-Clone Add(%d) %v (jagged) != %v (kernel)", trial, p, g1, g2)
				}
				sameGains(t, ref, ker, fmt.Sprintf("trial %d after clone", trial))
				if s1, s2 := ref.Score(), ker.Score(); s1 != s2 {
					t.Fatalf("trial %d: post-Clone Score %v != %v", trial, s1, s2)
				}
			}
		})
	}
}

// TestKernelScoreMatchesReference checks the kernel's incremental score
// against the first-principles Score on solutions built by Add, within
// floating-point tolerance (Score sums in a different order, so exact
// equality is not expected here — the bit-exact contract is vs the jagged
// evaluator, covered above).
func TestKernelScoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		inst := Random(rng, RandomConfig{Photos: 25, Subsets: 6, SimDensity: 0.5})
		e := NewEvaluator(inst)
		var sol []PhotoID
		for i := 0; i < 10; i++ {
			p := PhotoID(rng.Intn(inst.NumPhotos()))
			if !e.Contains(p) {
				sol = append(sol, p)
			}
			e.Add(p)
		}
		want := Score(inst, sol)
		if math.Abs(e.Score()-want) > floatTol {
			t.Fatalf("trial %d: kernel score %v, reference Score %v", trial, e.Score(), want)
		}
	}
}

// TestCoverageVectorKernelInvariant pins that CoverageVector — which reads
// the evaluator's flat best storage by running row offset — matches the
// jagged reference's per-subset best values exactly.
func TestCoverageVectorKernelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := Random(rng, RandomConfig{Photos: 20, Subsets: 5})
	sol := []PhotoID{1, 4, 9, 13}
	ref := newJaggedEvaluator(inst)
	for _, p := range sol {
		ref.Add(p)
	}
	got := CoverageVector(inst, sol)
	for qi := range ref.best {
		for mi := range ref.best[qi] {
			if got[qi][mi] != ref.best[qi][mi] {
				t.Fatalf("coverage[%d][%d]: %v (kernel) != %v (jagged)", qi, mi, got[qi][mi], ref.best[qi][mi])
			}
		}
	}
}

func TestCompileKernelPanicsBeforeFinalize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CompileKernel on unfinalized instance did not panic")
		}
	}()
	CompileKernel(&Instance{Cost: []float64{1}})
}

func TestAttachKernelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := Random(rng, RandomConfig{Photos: 15, Subsets: 4})
	other := Random(rng, RandomConfig{Photos: 16, Subsets: 4})
	k := CompileKernel(inst)

	if err := other.AttachKernel(k); err == nil {
		t.Fatal("attaching a kernel compiled for a different photo count succeeded")
	}
	unfinalized := &Instance{Cost: inst.Cost, Budget: inst.Budget, Subsets: inst.Subsets}
	if err := unfinalized.AttachKernel(k); err == nil {
		t.Fatal("attaching to an unfinalized instance succeeded")
	}
	if err := inst.AttachKernel(k); err != nil {
		t.Fatalf("self-attach failed: %v", err)
	}
	if inst.Kernel() != k {
		t.Fatal("Kernel() does not return the attached kernel")
	}
	// Budget views share the layout's kernel cell.
	var view Instance
	if err := inst.ViewInto(&view, inst.Budget/2); err != nil {
		t.Fatalf("ViewInto: %v", err)
	}
	if view.Kernel() != k {
		t.Fatal("ViewInto view does not share its template's kernel")
	}
	// Finalize invalidates the compiled layout: it starts a fresh cell, which
	// compiles its own kernel on first use and leaves the old views alone.
	if err := inst.Finalize(); err != nil {
		t.Fatalf("re-Finalize: %v", err)
	}
	if got := inst.Kernel(); got == nil || got == k {
		t.Fatalf("Kernel() after re-Finalize = %p, want a fresh kernel (old %p)", got, k)
	}
	if view.Kernel() != k {
		t.Fatal("re-Finalize of the template changed an old view's kernel")
	}
}

// TestWithKernel pins the τ-view's contract: the instance WithKernel returns
// reads the given kernel through in's layout, compiles nothing, and leaves
// in as it was; a kernel of another layout is refused with AttachKernel's
// error.
func TestWithKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := Random(rng, RandomConfig{Photos: 20, Subsets: 5})
	own := inst.Kernel()
	subsets, sims := inst.Subsets, make([]Similarity, len(inst.Subsets))
	for qi := range inst.Subsets {
		sims[qi] = inst.Subsets[qi].Sim
	}

	// Another layout per check: one more photo, one subset fewer, and one
	// subset with a member more or fewer.
	morePhotos := &Instance{Cost: append(slices.Clone(inst.Cost), 1), Retained: inst.Retained,
		Budget: inst.Budget, Subsets: inst.Subsets}
	fewerSubsets := &Instance{Cost: inst.Cost, Retained: inst.Retained, Budget: inst.Budget,
		Subsets: inst.Subsets[:len(inst.Subsets)-1]}
	otherMembers := &Instance{Cost: inst.Cost, Retained: inst.Retained, Budget: inst.Budget,
		Subsets: slices.Clone(inst.Subsets)}
	q0 := inst.Subsets[0]
	k0 := len(q0.Members) + 1
	if k0 > inst.NumPhotos() {
		k0 = len(q0.Members) - 1
	}
	members := make([]PhotoID, k0)
	rel := make([]float64, k0)
	for i := range members {
		members[i], rel[i] = PhotoID(i), 1/float64(k0)
	}
	otherMembers.Subsets[0] = Subset{Name: q0.Name, Weight: q0.Weight, Members: members,
		Relevance: rel, Sim: IdentitySim{N: k0}}
	for name, other := range map[string]*Instance{
		"photos": morePhotos, "subsets": fewerSubsets, "members": otherMembers,
	} {
		if err := other.Finalize(); err != nil {
			t.Fatalf("%s: Finalize: %v", name, err)
		}
		bad := CompileKernel(other)
		w, err := inst.WithKernel(bad)
		if err == nil || w != nil {
			t.Fatalf("%s: WithKernel accepted a kernel of another layout", name)
		}
		if want := inst.AttachKernel(bad); want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: WithKernel error %q, AttachKernel's %v", name, err, want)
		}
	}
	if _, err := (&Instance{Cost: inst.Cost, Subsets: inst.Subsets}).WithKernel(own); err == nil {
		t.Fatal("WithKernel on an unfinalized instance succeeded")
	}

	// A kernel of the same layout over other similarities: the positive
	// pairs at or above 0.5, as a τ-sparsification keeps them.
	thresholded := withSims(t, inst, func(k int, dense Similarity) Similarity {
		b := NewSparseSimBuilder(k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if s := dense.Sim(i, j); s >= 0.5 {
					b.Add(i, j, s)
				}
			}
		}
		return b.Build()
	})
	k := CompileKernel(thresholded)
	w, err := inst.WithKernel(k)
	if err != nil {
		t.Fatalf("WithKernel: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := w.Kernel()
	runtime.ReadMemStats(&after)
	if got != k {
		t.Fatalf("Kernel() = %p, want the given kernel %p", got, k)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("Kernel() on the result allocated %d objects, want 0", n)
	}
	var view Instance
	if err := w.ViewInto(&view, w.Budget/2); err != nil {
		t.Fatalf("ViewInto: %v", err)
	}
	if view.Kernel() != k {
		t.Fatal("a budget view of the result does not share its kernel")
	}
	if w.NumPhotos() != inst.NumPhotos() || w.RetainedCost() != inst.RetainedCost() ||
		len(w.Subsets) != len(inst.Subsets) {
		t.Fatal("the result does not share the instance's state")
	}
	for p := range inst.NumPhotos() {
		if !slices.Equal(w.Occurrences(PhotoID(p)), inst.Occurrences(PhotoID(p))) {
			t.Fatalf("photo %d: the result's occurrences differ from the instance's", p)
		}
	}
	for qi := range w.Subsets {
		q, tq := &w.Subsets[qi], &thresholded.Subsets[qi]
		if &q.Members[0] != &inst.Subsets[qi].Members[0] || &q.Relevance[0] != &inst.Subsets[qi].Relevance[0] {
			t.Fatalf("subset %d: the result does not share the instance's members and relevances", qi)
		}
		if name := fmt.Sprintf("%T", q.Sim); name != "*par.kernelSim" || q.Sim.(*kernelSim).k != k {
			t.Fatalf("subset %d: Sim is a %s, want a view of the given kernel", qi, name)
		}
		for i := range q.Members {
			for j := range q.Members {
				if a, b := q.Sim.Sim(i, j), tq.Sim.Sim(i, j); a != b {
					t.Fatalf("subset %d: view Sim(%d,%d) = %v, the kernel's source %v", qi, i, j, a, b)
				}
			}
		}
	}
	sameSlabs(t, "recompiled through the views", k, CompileKernel(w))

	// The source keeps its subsets slice, its similarities and its kernel.
	if &inst.Subsets[0] != &subsets[0] {
		t.Fatal("WithKernel replaced the instance's Subsets slice")
	}
	for qi := range inst.Subsets {
		if inst.Subsets[qi].Sim != sims[qi] {
			t.Fatalf("subset %d: WithKernel rewrote the instance's Sim", qi)
		}
	}
	if inst.Kernel() != own {
		t.Fatal("WithKernel changed the instance's kernel")
	}
}

// TestKernelCompilesOnceConcurrently pins the lazy compile's contract:
// concurrent first calls on views of one layout all get the same kernel.
func TestKernelCompilesOnceConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := Random(rng, RandomConfig{Photos: 30, Subsets: 8})
	views := make([]Instance, 8)
	got := make([]*Kernel, len(views))
	var wg sync.WaitGroup
	for i := range views {
		if err := inst.ViewInto(&views[i], inst.Budget); err != nil {
			t.Fatalf("ViewInto: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = views[i].Kernel()
		}()
	}
	wg.Wait()
	for i, k := range got {
		if k == nil || k != inst.Kernel() {
			t.Fatalf("view %d: kernel %p, template's %p", i, k, inst.Kernel())
		}
	}
}

// gatedSim is a UniformSim whose Sim blocks once armed, so a test can hold a
// first Kernel compile in flight.
type gatedSim struct {
	UniformSim
	armed   *atomic.Bool
	started chan struct{}
	release chan struct{}
}

func (g gatedSim) Sim(i, j int) float64 {
	if g.armed.CompareAndSwap(true, false) {
		close(g.started)
		<-g.release
	}
	return g.UniformSim.Sim(i, j)
}

func TestAttachKernelWaitsForInFlightCompile(t *testing.T) {
	g := gatedSim{UniformSim{N: 2}, new(atomic.Bool), make(chan struct{}), make(chan struct{})}
	inst := &Instance{
		Cost:   []float64{1, 1},
		Budget: 2,
		Subsets: []Subset{{Name: "q", Weight: 1, Members: []PhotoID{0, 1},
			Relevance: []float64{0.5, 0.5}, Sim: g}},
	}
	if err := inst.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	attached := CompileKernel(inst)
	var view Instance
	if err := inst.ViewInto(&view, 1); err != nil {
		t.Fatalf("ViewInto: %v", err)
	}

	g.armed.Store(true)
	compiled := make(chan *Kernel)
	go func() { compiled <- inst.Kernel() }()
	<-g.started
	attachDone := make(chan error)
	go func() { attachDone <- view.AttachKernel(attached) }()
	select {
	case <-attachDone:
		t.Fatal("AttachKernel returned while a first compile was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	if k := <-compiled; k == attached {
		t.Fatal("in-flight compile returned the kernel attached after it started")
	}
	if err := <-attachDone; err != nil {
		t.Fatalf("AttachKernel: %v", err)
	}
	// The attach landed after the compile, so every view of the layout now
	// runs the attached kernel.
	if inst.Kernel() != attached || view.Kernel() != attached {
		t.Fatalf("template kernel %p, view kernel %p, attached %p",
			inst.Kernel(), view.Kernel(), attached)
	}
}

func TestKernelBeforeFinalizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Kernel on unfinalized instance did not panic")
		}
	}()
	(&Instance{Cost: []float64{1}}).Kernel()
}

func TestKernelSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := Random(rng, RandomConfig{Photos: 40, Subsets: 10})
	k := CompileKernel(inst)
	if k.Rows() <= 0 || k.Entries() <= 0 {
		t.Fatalf("Rows = %d, Entries = %d, want > 0", k.Rows(), k.Entries())
	}
	rows, entries, photos := int64(k.Rows()), int64(k.Entries()), int64(inst.NumPhotos())
	var occ int64
	for p := range inst.NumPhotos() {
		occ += int64(len(inst.Occurrences(PhotoID(p))))
	}
	// Each entry carries an int32 neighbour row and a float64 similarity;
	// each row one float64 slot weight and one int64 offset (plus the
	// closing offset); each photo one int32 occurrence offset (plus the
	// closing one) and each occurrence an int32 row; each subset an int32
	// length.
	want := 12*entries + 8*rows + 8*(rows+1) + 4*(photos+1) + 4*occ + 4*int64(len(inst.Subsets))
	if got := k.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d for %d entries over %d rows", got, want, entries, rows)
	}

	// The cover index charges 12 bytes per list entry — min(row length,
	// CoverK) per row — and per row an int64 offset (plus the closing one)
	// and an int32 photo. CoverBytes reports it before the build, and
	// SizeBytes counts it after.
	var listed int64
	for r := 0; r < k.Rows(); r++ {
		listed += min(k.rowStart[r+1]-k.rowStart[r], CoverK)
	}
	wantCover := 12*listed + 8*(rows+1) + 4*rows
	if n, built := k.CoverBytes(); n != wantCover || built {
		t.Fatalf("CoverBytes before the build = %d (built %v), want %d (false)", n, built, wantCover)
	}
	if k.Covers() == nil {
		t.Fatal("symmetric kernel has no cover index")
	}
	if n, built := k.CoverBytes(); n != wantCover || !built {
		t.Fatalf("CoverBytes after the build = %d (built %v), want %d (true)", n, built, wantCover)
	}
	if got := k.SizeBytes(); got != want+wantCover {
		t.Fatalf("SizeBytes with the cover index = %d, want %d", got, want+wantCover)
	}

	// The overlay charges its index slices, one slice header per row, tail
	// photo and base photo, 16 bytes per appended entry and a byte per
	// row's dead flag; each tail row adds its slot weight to slotWR. The
	// delta test instance has 9 photos and subsets of 5, 4 and 4 members.
	kern := CompileKernel(deltaTestInstance(t, 1))
	before := kern.SizeBytes()
	kern.TombstoneRow(0, 1)
	kern.AppendPhoto()                                                                 // photo 9
	kern.AppendMemberRow(1, 9, []Neighbor{{Index: 1, Sim: 0.9}, {Index: 2, Sim: 0.4}}) // 2 pairs + self
	kern.AppendSubset()                                                                // subset 3
	kern.AppendMemberRow(3, 1, nil)                                                    // self
	kern.AppendMemberRow(3, 9, []Neighbor{{Index: 0, Sim: 0.6}})                       // 1 pair + self
	const (
		baseSubs, subs     = 3, 4
		baseRows, tailRows = 13, 3
		basePhotos         = 9
		extraEntries       = 2*2 + 1 + 1 + 2*1 + 1
	)
	overlay := int64(4*(2*baseSubs) + // subOff, baseLen
		4*(3*tailRows) + // rowSub, rowMi, rowPhotos
		24*subs + 4*tailRows + // tails
		24*(baseRows+tailRows) + 16*extraEntries + // extra
		24*1 + 4*2 + // tailOcc: photo 9 occupies two rows
		24*basePhotos + 4*1 + // extraOcc: photo 1 joined subset 3
		(baseRows + tailRows)) // deadRow
	growth := int64(8*tailRows + 4) // slotWR, rowLen
	if got, want := kern.SizeBytes()-before, overlay+growth; got != want {
		t.Fatalf("overlay SizeBytes grew by %d, want %d", got, want)
	}
}

// FuzzKernelVsReference fuzzes instance shape, similarity implementation
// and solution, holding the production Evaluator to the jagged reference
// with == on every Gain, Add and GainsInto (GOMAXPROCS 1, 2 and 8), and its score
// to the first-principles Score within tolerance.
func FuzzKernelVsReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(5), uint8(0))
	f.Add(int64(42), uint8(30), uint8(8), uint8(12), uint8(1))
	f.Add(int64(-7), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Add(int64(5), uint8(20), uint8(6), uint8(9), uint8(3))
	f.Add(int64(9), uint8(16), uint8(4), uint8(7), uint8(4))
	names := make([]string, 0, len(simVariants))
	for name := range simVariants {
		names = append(names, name)
	}
	slices.Sort(names)
	f.Fuzz(func(t *testing.T, seed int64, photos, subsets, picks, sim uint8) {
		if photos == 0 || subsets == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		base := Random(rng, RandomConfig{
			Photos:     int(photos),
			Subsets:    int(subsets),
			SimDensity: 0.4,
		})
		inst := withSims(t, base, simVariants[names[int(sim)%len(names)]])
		ref, e := newJaggedEvaluator(inst), NewEvaluator(inst)
		seen := map[PhotoID]bool{}
		var sol []PhotoID
		for i := 0; i < int(picks); i++ {
			p := PhotoID(rng.Intn(inst.NumPhotos()))
			if g1, g2 := ref.Gain(p), e.Gain(p); g1 != g2 {
				t.Fatalf("pick %d: Gain(%d) %v (jagged) != %v (kernel)", i, p, g1, g2)
			}
			if g1, g2 := ref.Add(p), e.Add(p); g1 != g2 {
				t.Fatalf("pick %d: Add(%d) %v (jagged) != %v (kernel)", i, p, g1, g2)
			}
			if !seen[p] {
				seen[p] = true
				sol = append(sol, p)
			}
		}
		sameGains(t, ref, e, "after picks")
		if ref.Score() != e.Score() {
			t.Fatalf("score %v (kernel) != %v (jagged)", e.Score(), ref.Score())
		}
		want := Score(inst, sol)
		tol := floatTol * (1 + math.Abs(want))
		if diff := math.Abs(e.Score() - want); diff > tol {
			t.Fatalf("kernel score %v, reference Score %v (diff %v)", e.Score(), want, diff)
		}
	})
}

// BenchmarkKernelCompile measures CompileKernel itself — the cost Prepare
// amortizes across solves.
func BenchmarkKernelCompile(b *testing.B) {
	for _, photos := range []int{100, 1000} {
		b.Run(fmt.Sprintf("photos=%d", photos), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			inst := Random(rng, RandomConfig{Photos: photos, Subsets: photos / 5, MaxSubset: 16})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := CompileKernel(inst)
				if k.Rows() == 0 {
					b.Fatal("empty kernel")
				}
			}
		})
	}
}
