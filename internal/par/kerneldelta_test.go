package par

import (
	"math/rand"
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

		// --- renormalize + rewrite fused weights ----------------------------
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

		// A removed photo must never gain: its row is tombstoned and every
		// symmetric entry carries W·R = 0 after the rewrite.
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
