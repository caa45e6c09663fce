package par

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// deltaTestInstance builds a small dense-similarity instance for overlay
// tests: nPhotos photos spread over subsets of varying size.
func deltaTestInstance(t *testing.T, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 9
	cost := make([]float64, n)
	for i := range cost {
		cost[i] = 1 + rng.Float64()*4
	}
	mk := func(members []PhotoID) Subset {
		k := len(members)
		sim := NewDenseSim(k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if rng.Float64() < 0.7 {
					sim.Set(i, j, 0.05+0.95*rng.Float64())
				}
			}
		}
		rel := make([]float64, k)
		var sum float64
		for i := range rel {
			rel[i] = 0.2 + rng.Float64()
			sum += rel[i]
		}
		for i := range rel {
			rel[i] /= sum
		}
		return Subset{Name: "q", Weight: 0.5 + rng.Float64(), Members: members, Relevance: rel, Sim: sim}
	}
	inst := &Instance{
		Cost: cost,
		Subsets: []Subset{
			mk([]PhotoID{0, 1, 2, 3, 4}),
			mk([]PhotoID{2, 3, 5, 6}),
			mk([]PhotoID{0, 4, 7, 8}),
		},
	}
	inst.Budget = inst.TotalCost()
	if err := inst.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return inst
}

// renorm zeroes nothing but rescales rel to sum 1 in place.
func renorm(rel []float64) {
	var sum float64
	for _, r := range rel {
		sum += r
	}
	for i := range rel {
		rel[i] /= sum
	}
}

// TestKernelCanonicalRowOf pins the canonical layout that CoverageVector's
// running row offset and the snapshot codec rely on: a freshly compiled
// kernel is Canonical, RowOf numbers its rows subset by subset, and the flat
// best array read through RowOf agrees with CoverageVector. The first
// mutation makes the kernel non-canonical, and Slabs then refuses it.
func TestKernelCanonicalRowOf(t *testing.T) {
	inst := deltaTestInstance(t, 3)
	kern := CompileKernel(inst)
	if !kern.Canonical() {
		t.Fatal("freshly compiled kernel is not canonical")
	}
	if err := inst.AttachKernel(kern); err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(inst)
	e.Add(0)
	e.Add(5)
	cov := CoverageVector(inst, []PhotoID{0, 5})
	var row int32
	for qi := range inst.Subsets {
		for mi := range inst.Subsets[qi].Members {
			if got := kern.RowOf(qi, mi); got != row {
				t.Fatalf("RowOf(%d, %d) = %d, want %d", qi, mi, got, row)
			}
			if e.flat[row] != cov[qi][mi] {
				t.Fatalf("row %d: flat %v != coverage %v", row, e.flat[row], cov[qi][mi])
			}
			row++
		}
	}
	if got := len(kern.Slabs().RowStart) - 1; got != int(row) {
		t.Fatalf("Slabs spans %d rows, want %d", got, row)
	}

	kern.TombstoneRow(0, 1)
	if kern.Canonical() {
		t.Fatal("kernel still canonical after a mutation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Slabs on a non-canonical kernel did not panic")
		}
	}()
	kern.Slabs()
}

// TestKernelOverlayBitIdentical drives the full overlay vocabulary —
// tombstone a removed photo, append a new photo into an existing subset,
// append a whole new subset mixing an existing and the new photo — and
// requires every gain and every add along a greedy trajectory to be
// bit-identical to a kernel freshly compiled over the equivalent updated
// instance.
func TestKernelOverlayBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		inst := deltaTestInstance(t, seed)
		kern := CompileKernel(inst)

		// --- remove photo 2 (member of subsets 0 and 1) ---------------------
		for qi := range inst.Subsets {
			q := &inst.Subsets[qi]
			for mi, p := range q.Members {
				if p != 2 {
					continue
				}
				ds := NewDeltaSim(q.Sim)
				ds.MaskMember(mi)
				q.Sim = ds
				q.Relevance[mi] = 0
				kern.TombstoneRow(qi, mi)
			}
		}

		// --- add photo 9 to subset 1 with two neighbours --------------------
		inst.Cost = append(inst.Cost, 2.5)
		kern.AppendPhoto()
		{
			q := &inst.Subsets[1]
			// Neighbours must be live members: index 0 of subset 1 is the
			// removed photo 2, so pair with members 1 and 2 instead (the
			// engine's delta validation enforces exactly this).
			nbrs := []Neighbor{{Index: 1, Sim: 0.9}, {Index: 2, Sim: 0.4}}
			if ds, ok := q.Sim.(*DeltaSim); ok {
				ds.AppendMember(nbrs)
			} else {
				ds := NewDeltaSim(q.Sim)
				ds.AppendMember(nbrs)
				q.Sim = ds
			}
			q.Members = append(q.Members, 9)
			q.Relevance = append(q.Relevance, 0.3)
			kern.AppendMemberRow(1, 9, nbrs)
		}

		// --- new subset over existing photo 1 and new photo 9 ---------------
		{
			ss := NewSparseSim(2)
			ss.Add(0, 1, 0.6)
			inst.Subsets = append(inst.Subsets, Subset{
				Name: "new", Weight: 0.8,
				Members:   []PhotoID{1, 9},
				Relevance: []float64{0.5, 0.5},
				Sim:       ss,
			})
			kern.AppendSubset()
			kern.AppendMemberRow(3, 1, nil)
			kern.AppendMemberRow(3, 9, []Neighbor{{Index: 0, Sim: 0.6}})
		}

		// --- renormalize + rewrite slot weights -----------------------------
		for qi := range inst.Subsets {
			q := &inst.Subsets[qi]
			renorm(q.Relevance)
			kern.RewriteWR(qi, q.Weight, q.Relevance)
		}
		inst.Budget = inst.TotalCost()
		if err := inst.Finalize(); err != nil {
			t.Fatalf("seed %d: re-Finalize: %v", seed, err)
		}
		if err := kern.validateOverlayOrder(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if kern.Canonical() {
			t.Fatalf("seed %d: kernel should be non-canonical after mutations", seed)
		}
		if lf := kern.LiveFraction(); lf >= 1 || lf <= 0 {
			t.Fatalf("seed %d: LiveFraction = %v, want in (0,1)", seed, lf)
		}

		// Overlay view vs freshly compiled reference over the same instance.
		over := &Instance{Cost: inst.Cost, Budget: inst.Budget, Subsets: inst.Subsets}
		if err := over.Finalize(); err != nil {
			t.Fatalf("seed %d: overlay view Finalize: %v", seed, err)
		}
		if err := over.AttachKernel(kern); err != nil {
			t.Fatalf("seed %d: AttachKernel(overlay): %v", seed, err)
		}
		ref := &Instance{Cost: inst.Cost, Budget: inst.Budget, Subsets: inst.Subsets}
		if err := ref.Finalize(); err != nil {
			t.Fatalf("seed %d: ref view Finalize: %v", seed, err)
		}
		if err := ref.AttachKernel(CompileKernel(ref)); err != nil {
			t.Fatalf("seed %d: AttachKernel(ref): %v", seed, err)
		}

		eo, er := NewEvaluator(over), NewEvaluator(ref)
		if eo.kern != kern || kern.Canonical() {
			t.Fatalf("seed %d: evaluator does not run the attached overlay kernel", seed)
		}
		n := over.NumPhotos()
		// Greedy trajectory: at each step compare every photo's gain bit for
		// bit, then add the best by the reference's ordering.
		for step := 0; step < 5; step++ {
			bestP, bestG := PhotoID(-1), -1.0
			for p := 0; p < n; p++ {
				go_, gr := eo.Gain(PhotoID(p)), er.Gain(PhotoID(p))
				if go_ != gr {
					t.Fatalf("seed %d step %d: Gain(%d) overlay %v != compiled %v", seed, step, p, go_, gr)
				}
				if !er.Contains(PhotoID(p)) && gr > bestG {
					bestP, bestG = PhotoID(p), gr
				}
			}
			if bestP < 0 {
				break
			}
			if ao, ar := eo.Add(bestP), er.Add(bestP); ao != ar {
				t.Fatalf("seed %d step %d: Add(%d) overlay %v != compiled %v", seed, step, bestP, ao, ar)
			}
		}
		if eo.Score() != er.Score() {
			t.Fatalf("seed %d: final score overlay %v != compiled %v", seed, eo.Score(), er.Score())
		}

		// A removed photo must never gain: its row is tombstoned and its
		// slot weight is W·0 = 0 after the rewrite.
		if g := NewEvaluator(over).Gain(2); g != 0 {
			t.Fatalf("seed %d: removed photo still gains %v", seed, g)
		}

		// CoverageVector must agree between the overlay row mapping and the
		// canonical layout.
		sol := er.Solution().Photos
		co, cr := CoverageVector(over, sol), CoverageVector(ref, sol)
		for qi := range cr {
			for mi := range cr[qi] {
				if co[qi][mi] != cr[qi][mi] {
					t.Fatalf("seed %d: CoverageVector[%d][%d] overlay %v != compiled %v",
						seed, qi, mi, co[qi][mi], cr[qi][mi])
				}
			}
		}

		// Clone of an overlay evaluator must stay consistent.
		cl := eo.Clone()
		if cl.Score() != eo.Score() || cl.Gain(PhotoID(n-1)) != er.Gain(PhotoID(n-1)) {
			t.Fatalf("seed %d: overlay evaluator clone diverged", seed)
		}
	}
}

// TestDeltaSim checks the overlay similarity in isolation: masking,
// appended rows, symmetry, and the diagonal convention.
func TestDeltaSim(t *testing.T) {
	base := NewDenseSim(3)
	base.Set(0, 1, 0.8)
	base.Set(1, 2, 0.5)
	d := NewDeltaSim(base)
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if got := d.Sim(0, 1); got != 0.8 {
		t.Fatalf("Sim(0,1) = %v, want 0.8", got)
	}
	d.MaskMember(1)
	if d.Sim(0, 1) != 0 || d.Sim(2, 1) != 0 {
		t.Fatal("masked member still similar to others")
	}
	if d.Sim(1, 1) != 1 {
		t.Fatal("diagonal must stay 1 even when masked")
	}
	d.AppendMember([]Neighbor{{Index: 0, Sim: 0.7}, {Index: 2, Sim: 0.2}})
	if d.Len() != 4 {
		t.Fatalf("Len = %d after append, want 4", d.Len())
	}
	if d.Sim(3, 0) != 0.7 || d.Sim(0, 3) != 0.7 || d.Sim(3, 2) != 0.2 {
		t.Fatal("appended row not symmetric")
	}
	if d.Sim(3, 1) != 0 {
		t.Fatal("absent appended pair should be 0")
	}
	d.AppendMember([]Neighbor{{Index: 3, Sim: 0.9}})
	if d.Sim(4, 3) != 0.9 || d.Sim(3, 4) != 0.9 {
		t.Fatal("pair between two appended members broken")
	}
	d.MaskMember(3)
	if d.Sim(4, 3) != 0 || d.Sim(3, 0) != 0 {
		t.Fatal("masking an appended member did not zero its pairs")
	}
}

// overlayModel keeps an instance in lockstep with a kernel under a mutation
// overlay, issuing each change to both the way the engine's ApplyDelta
// does: tombstones first, then appended photos and subsets, then the
// renormalization and slot-weight rewrite of every touched subset.
type overlayModel struct {
	inst    *Instance
	kern    *Kernel
	removed []bool
}

// deltaSim returns q's similarity as a DeltaSim, wrapping it on first use.
func deltaSim(q *Subset) *DeltaSim {
	ds, ok := q.Sim.(*DeltaSim)
	if !ok {
		ds = NewDeltaSim(q.Sim)
		q.Sim = ds
	}
	return ds
}

// live returns the indices of q's members that were not removed.
func (m *overlayModel) live(q *Subset) []int {
	var out []int
	for mi, p := range q.Members {
		if !m.removed[p] {
			out = append(out, mi)
		}
	}
	return out
}

// neighbors draws a random similarity row against a random subset of the
// given member indices, ascending, with sims in (0, 1].
func neighbors(rng *rand.Rand, among []int) []Neighbor {
	var nbrs []Neighbor
	for _, mi := range among {
		if rng.Intn(2) == 0 {
			nbrs = append(nbrs, Neighbor{Index: mi, Sim: 1 - rng.Float64()})
		}
	}
	return nbrs
}

// batch applies one random churn batch to the instance and the kernel.
func (m *overlayModel) batch(t *testing.T, rng *rand.Rand) {
	inst := m.inst
	touched := map[int]bool{}

	// Removals: never a retained photo, and never a subset's last live member
	// (its relevance would not renormalize).
	for i := rng.Intn(4); i > 0; i-- {
		p := PhotoID(rng.Intn(inst.NumPhotos()))
		if m.removed[p] || inst.IsRetained(p) {
			continue
		}
		ok := true
		for _, oc := range inst.Occurrences(p) {
			ok = ok && len(m.live(&inst.Subsets[oc.Subset])) > 1
		}
		if !ok {
			continue
		}
		m.removed[p] = true
		for _, oc := range inst.Occurrences(p) {
			q := &inst.Subsets[oc.Subset]
			deltaSim(q).MaskMember(oc.Index)
			q.Relevance[oc.Index] = 0
			m.kern.TombstoneRow(oc.Subset, oc.Index)
			touched[oc.Subset] = true
		}
	}

	// Appended photos, each joining existing subsets in ascending order.
	oldSubs := len(inst.Subsets)
	for i := rng.Intn(3); i > 0; i-- {
		p := PhotoID(inst.NumPhotos())
		inst.Cost = append(inst.Cost, 0.5+2*rng.Float64())
		m.removed = append(m.removed, false)
		m.kern.AppendPhoto()
		for qi := 0; qi < oldSubs; qi++ {
			if rng.Intn(3) != 0 {
				continue
			}
			q := &inst.Subsets[qi]
			nbrs := neighbors(rng, m.live(q))
			deltaSim(q).AppendMember(nbrs)
			q.Members = append(q.Members, p)
			q.Relevance = append(q.Relevance, 0.2+rng.Float64())
			m.kern.AppendMemberRow(qi, p, nbrs)
			touched[qi] = true
		}
	}

	// Appended subsets over live photos, old and new alike.
	for i := rng.Intn(2); i > 0; i-- {
		qi := len(inst.Subsets)
		var members []PhotoID
		for p := range inst.NumPhotos() {
			if !m.removed[p] && rng.Intn(4) == 0 && len(members) < 5 {
				members = append(members, PhotoID(p))
			}
		}
		if len(members) == 0 {
			continue
		}
		ss := NewSparseSim(len(members))
		rel := make([]float64, len(members))
		m.kern.AppendSubset()
		for pos, p := range members {
			prev := make([]int, pos)
			for j := range prev {
				prev[j] = j
			}
			nbrs := neighbors(rng, prev)
			for _, nb := range nbrs {
				ss.Add(pos, nb.Index, nb.Sim)
			}
			rel[pos] = 0.2 + rng.Float64()
			m.kern.AppendMemberRow(qi, p, nbrs)
		}
		inst.Subsets = append(inst.Subsets, Subset{
			Name: "new", Weight: 0.5 + rng.Float64(),
			Members: members, Relevance: rel, Sim: ss,
		})
		touched[qi] = true
	}

	for qi := range inst.Subsets {
		if touched[qi] {
			q := &inst.Subsets[qi]
			renorm(q.Relevance)
			m.kern.RewriteWR(qi, q.Weight, q.Relevance)
		}
	}
	inst.Budget = inst.TotalCost()
	if err := inst.Finalize(); err != nil {
		t.Fatalf("re-Finalize: %v", err)
	}
}

// check holds the overlay kernel to a kernel compiled fresh over the same
// instance: every photo's Gain bit for bit, before and after each Add of a
// random sequence of live photos, every Add's gain, and the coverage vector
// of the resulting selection.
func (m *overlayModel) check(t *testing.T, rng *rand.Rand, step string) {
	t.Helper()
	if err := m.kern.validateOverlayOrder(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if m.kern.ov == nil {
		// No batch has changed the kernel yet.
	} else if got, want := m.kern.ov.dead, deadEntries(m.kern); got != want {
		t.Fatalf("%s: %d dead entries counted, %d in the slabs", step, got, want)
	}
	view := func(k *Kernel) *Instance {
		v := &Instance{Cost: m.inst.Cost, Retained: m.inst.Retained, Budget: m.inst.Budget, Subsets: m.inst.Subsets}
		if err := v.Finalize(); err != nil {
			t.Fatalf("%s: Finalize: %v", step, err)
		}
		if k == nil {
			k = CompileKernel(v)
		}
		if err := v.AttachKernel(k); err != nil {
			t.Fatalf("%s: AttachKernel: %v", step, err)
		}
		return v
	}
	over, ref := view(m.kern), view(nil)
	eo, er := NewEvaluator(over), NewEvaluator(ref)
	sameBits := func(when string) {
		t.Helper()
		for p := range over.NumPhotos() {
			if g, w := eo.Gain(PhotoID(p)), er.Gain(PhotoID(p)); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s %s: Gain(%d) overlay %v != compiled %v", step, when, p, g, w)
			}
		}
	}
	sameBits("before adds")
	var sol []PhotoID
	for i := rng.Intn(5); i > 0; i-- {
		p := PhotoID(rng.Intn(over.NumPhotos()))
		if m.removed[p] || er.Contains(p) {
			continue
		}
		if g, w := eo.Add(p), er.Add(p); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Add(%d) overlay %v != compiled %v", step, p, g, w)
		}
		sol = append(sol, p)
		sameBits(fmt.Sprintf("after Add(%d)", p))
	}
	co, cr := CoverageVector(over, sol), CoverageVector(ref, sol)
	for qi := range cr {
		for mi := range cr[qi] {
			if math.Float64bits(co[qi][mi]) != math.Float64bits(cr[qi][mi]) {
				t.Fatalf("%s: CoverageVector[%d][%d] overlay %v != compiled %v", step, qi, mi, co[qi][mi], cr[qi][mi])
			}
		}
	}

	// Kernel views of the overlay read back the reference similarity pair
	// by pair and row by row, and compiling them — a compaction — gives
	// exactly the fresh compile's slabs.
	views := &Instance{Cost: m.inst.Cost, Retained: m.inst.Retained, Budget: m.inst.Budget, Subsets: slices.Clone(m.inst.Subsets)}
	SetKernelSims(views.Subsets, m.kern)
	var row []Neighbor
	for qi := range views.Subsets {
		v, w := views.Subsets[qi].Sim, m.inst.Subsets[qi].Sim
		if v.Len() != w.Len() {
			t.Fatalf("%s: subset %d view over %d members, reference %d", step, qi, v.Len(), w.Len())
		}
		for i := 0; i < w.Len(); i++ {
			var want []Neighbor
			for j := 0; j < w.Len(); j++ {
				s := w.Sim(i, j)
				if got := v.Sim(i, j); math.Float64bits(got) != math.Float64bits(s) {
					t.Fatalf("%s: subset %d view Sim(%d,%d) = %v, reference %v", step, qi, i, j, got, s)
				}
				if s > 0 {
					want = append(want, Neighbor{Index: j, Sim: s})
				}
			}
			if row = v.(NeighborLister).AppendNeighbors(row[:0], i); !slices.Equal(row, want) {
				t.Fatalf("%s: subset %d view row %d = %v, reference %v", step, qi, i, row, want)
			}
		}
	}
	if err := views.Finalize(); err != nil {
		t.Fatalf("%s: views Finalize: %v", step, err)
	}
	if got, want := CompileKernel(views).Slabs(), ref.Kernel().Slabs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: compiling the overlay's views differs from a fresh compile", step)
	}
}

// FuzzKernelOverlay is the overlay's differential check: a random finalized
// instance (dense, sparse, neighbour-list, full-scan, uniform or identity
// similarities) takes random churn batches — tombstoned rows with their
// relevance dropped to 0 and renormalized, appended photos, subsets and
// member rows, and the slot-weight rewrite of every touched subset — and
// after each batch the overlay kernel must agree bit for bit with a kernel
// compiled fresh over the same instance. The seed corpus starts with
// TestKernelOverlayBitIdentical's seeds and shape.
func FuzzKernelOverlay(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(9), uint8(3), uint8(3), uint8(0))
	}
	f.Add(int64(42), uint8(30), uint8(8), uint8(6), uint8(1))
	f.Add(int64(-7), uint8(4), uint8(1), uint8(5), uint8(2))
	f.Add(int64(5), uint8(20), uint8(6), uint8(4), uint8(3))
	f.Add(int64(9), uint8(16), uint8(4), uint8(4), uint8(4))
	f.Add(int64(11), uint8(25), uint8(7), uint8(8), uint8(5))
	names := make([]string, 0, len(simVariants))
	for name := range simVariants {
		names = append(names, name)
	}
	slices.Sort(names)
	f.Fuzz(func(t *testing.T, seed int64, photos, subsets, batches, sim uint8) {
		if photos == 0 || subsets == 0 || batches > 16 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		base := Random(rng, RandomConfig{
			Photos:     int(photos),
			Subsets:    int(subsets),
			RetainFrac: 0.1,
			SimDensity: 0.5,
		})
		inst := withSims(t, base, simVariants[names[int(sim)%len(names)]])
		m := &overlayModel{inst: inst, kern: CompileKernel(inst), removed: make([]bool, inst.NumPhotos())}
		for b := range int(batches) {
			m.batch(t, rng)
			m.check(t, rng, fmt.Sprintf("batch %d", b))
		}
	})
}

// deadEntries recounts an overlaid kernel's dead entries from its slabs
// and overlay: every entry but a self entry that sits in a tombstoned row
// or targets one.
func deadEntries(k *Kernel) int {
	ov, n := k.ov, 0
	count := func(r int, idx int32) {
		if idx != int32(r) && (ov.deadRow[r] || ov.deadRow[idx]) {
			n++
		}
	}
	for r := range ov.baseRows {
		for _, idx := range k.nbrIdx[k.rowStart[r]:k.rowStart[r+1]] {
			count(r, idx)
		}
	}
	for r, ex := range ov.extra {
		for _, e := range ex {
			count(r, e.idx)
		}
	}
	return n
}

// TestLiveFractionCountsPairsOnce tombstones every member of a 3-member
// UniformSim subset: its 6 off-diagonal entries die, each counted once,
// and the 3 self entries stay live.
func TestLiveFractionCountsPairsOnce(t *testing.T) {
	inst := &Instance{
		Cost:    []float64{1, 1, 1},
		Budget:  3,
		Subsets: []Subset{{Name: "q", Weight: 1, Members: []PhotoID{0, 1, 2}, Relevance: []float64{0.2, 0.3, 0.5}, Sim: UniformSim{N: 3}}},
	}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	kern := CompileKernel(inst)
	for mi, want := range []int{2, 1, 0} {
		if pairs := kern.TombstoneRow(0, mi); pairs != want {
			t.Fatalf("tombstoning member %d lost %d pairs, want %d", mi, pairs, want)
		}
	}
	if lf := kern.LiveFraction(); lf != 1.0/3 {
		t.Fatalf("LiveFraction = %v, want 1/3", lf)
	}
}
