package sparsify

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/par"
)

// finalized returns a finalized copy of inst, its similarities untouched.
func finalized(t testing.TB, inst *par.Instance) *par.Instance {
	t.Helper()
	v := &par.Instance{Cost: inst.Cost, Retained: inst.Retained, Budget: inst.Budget,
		Subsets: slices.Clone(inst.Subsets)}
	if err := v.Finalize(); err != nil {
		t.Fatal(err)
	}
	return v
}

// kernelViews returns a finalized copy of inst whose subsets hold views of
// its compiled kernel, as a Prepared's subsets do.
func kernelViews(t testing.TB, inst *par.Instance) *par.Instance {
	t.Helper()
	v := finalized(t, inst)
	par.SetKernelSims(v.Subsets, v.Kernel())
	return v
}

// wireDecoded round-trips inst through the JSON wire form, whose decoder
// builds a SparseSim per subset.
func wireDecoded(t testing.TB, inst *par.Instance) *par.Instance {
	t.Helper()
	var buf bytes.Buffer
	if err := par.WriteJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	out, _, err := par.DecodeJSONVectors(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// masked returns inst with every subset's similarity wrapped in a
// par.DeltaSim that masks each member with probability frac, as removing
// its photo does.
func masked(rng *rand.Rand, inst *par.Instance, frac float64) *par.Instance {
	out := *inst
	out.Subsets = slices.Clone(inst.Subsets)
	for qi := range out.Subsets {
		ds := par.NewDeltaSim(out.Subsets[qi].Sim)
		for i := range out.Subsets[qi].Members {
			if rng.Float64() < frac {
				ds.MaskMember(i)
			}
		}
		out.Subsets[qi].Sim = ds
	}
	return &out
}

// checkThreshold holds the canonical kernel compiled over src, thresholded
// at τ, to the kernel compiled over Exact's all-pairs sparsification of
// ref, whose similarities src holds: the same slabs, bit for bit, and the
// same pair counters.
func checkThreshold(t testing.TB, label string, ref, src *par.Instance, tau float64) {
	t.Helper()
	label = fmt.Sprintf("%s τ=%g", label, tau)
	want, err := Exact(ref, tau)
	if err != nil {
		t.Fatal(err)
	}
	got, before, after := par.CompileKernel(src).Threshold(tau)
	if before != want.PairsBefore || after != want.PairsAfter {
		t.Fatalf("%s: pairs before/after %d/%d, all-pairs loop %d/%d",
			label, before, after, want.PairsBefore, want.PairsAfter)
	}
	w, g := want.Instance.Kernel().Slabs(), got.Slabs()
	same := func(name string, a, b any) {
		t.Helper()
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: slab %s differs:\n  threshold: %.120v\n  all-pairs: %.120v", label, name, b, a)
		}
	}
	same("photos", w.Photos, g.Photos)
	same("rowLen", w.RowLen, g.RowLen)
	same("rowStart", w.RowStart, g.RowStart)
	same("nbrIdx", w.NbrIdx, g.NbrIdx)
	same("occStart", w.OccStart, g.OccStart)
	same("occRow", w.OccRow, g.OccRow)
	for name, pair := range map[string][2][]float64{"nbrSim": {w.NbrSim, g.NbrSim}, "slotWR": {w.SlotWR, g.SlotWR}} {
		if !slices.EqualFunc(pair[0], pair[1], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: slab %s differs", label, name)
		}
	}
}

// TestThresholdMatchesAllPairs: thresholding a compiled kernel at τ keeps
// exactly the entries, order and bits that compiling the all-pairs
// sparsification keeps, and counts the same pairs, on every similarity a
// kernel is compiled from: a wire-decoded SparseSim and its kernel views, a
// DenseSim's and the generator's vector similarities' kernel views, and
// views of masked similarities. Kernels after deltas and compactions are
// covered in internal/phocus (TestThresholdAfterDeltas).
func TestThresholdMatchesAllPairs(t *testing.T) {
	vec, err := dataset.GeneratePublic(dataset.PublicSpecs(0.3)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0, 0.4, 0.75, 1} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			dense := par.Random(rng, par.RandomConfig{Photos: 60, Subsets: 12, MaxSubset: 14, SimDensity: 0.6})
			wire := wireDecoded(t, dense)
			checkThreshold(t, "wire SparseSim", wire, finalized(t, wire), tau)
			checkThreshold(t, "views of wire SparseSim", wire, kernelViews(t, wire), tau)
			checkThreshold(t, "views of DenseSim", dense, kernelViews(t, dense), tau)
			m := masked(rng, dense, 0.3)
			checkThreshold(t, "views of masked DenseSim", m, kernelViews(t, m), tau)
		}
		checkThreshold(t, "views of vector sims", vec.Instance, kernelViews(t, vec.Instance), tau)
	}
}

// FuzzSparsifyRows fuzzes instance shape, density, τ and similarity
// family, holding the thresholded kernel to the all-pairs sparsification
// as TestThresholdMatchesAllPairs does.
func FuzzSparsifyRows(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(5), uint8(128), uint8(100), uint8(0))
	f.Add(int64(7), uint8(40), uint8(9), uint8(230), uint8(0), uint8(1))
	f.Add(int64(-3), uint8(3), uint8(1), uint8(10), uint8(255), uint8(2))
	f.Add(int64(11), uint8(30), uint8(6), uint8(77), uint8(190), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, photos, subsets, density, tau, family uint8) {
		if photos == 0 || subsets == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		dense := par.Random(rng, par.RandomConfig{
			Photos:     int(photos),
			Subsets:    int(subsets),
			MaxSubset:  16,
			SimDensity: (float64(density) + 1) / 256,
		})
		th := float64(tau) / 255
		switch family % 4 {
		case 0:
			wire := wireDecoded(t, dense)
			checkThreshold(t, "wire SparseSim", wire, finalized(t, wire), th)
		case 1:
			wire := wireDecoded(t, dense)
			checkThreshold(t, "views of wire SparseSim", wire, kernelViews(t, wire), th)
		case 2:
			checkThreshold(t, "views of DenseSim", dense, kernelViews(t, dense), th)
		case 3:
			m := masked(rng, dense, (float64(density)+1)/256)
			checkThreshold(t, "views of masked DenseSim", m, kernelViews(t, m), th)
		}
	})
}
