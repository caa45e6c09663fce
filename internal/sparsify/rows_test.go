package sparsify

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/par"
)

// simOnly hides a similarity's neighbour listing, so Exact takes the
// all-pairs loop over it: the reference every row walk is held to.
type simOnly struct{ par.Similarity }

// allPairs returns inst with every similarity hidden behind simOnly.
func allPairs(inst *par.Instance) *par.Instance {
	out := *inst
	out.Subsets = slices.Clone(inst.Subsets)
	for qi := range out.Subsets {
		out.Subsets[qi].Sim = simOnly{inst.Subsets[qi].Sim}
	}
	return &out
}

// kernelViews returns a finalized copy of inst whose subsets hold views of
// its compiled kernel, as Prepare hands them to the sparsifier.
func kernelViews(t testing.TB, inst *par.Instance) *par.Instance {
	t.Helper()
	v := &par.Instance{Cost: inst.Cost, Retained: inst.Retained, Budget: inst.Budget,
		Subsets: slices.Clone(inst.Subsets)}
	if err := v.Finalize(); err != nil {
		t.Fatal(err)
	}
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

// asymLister is a NeighborLister whose Sim(i, j) and Sim(j, i) differ: row
// i lists (j, Sim(i, j)). It breaks Similarity's symmetry contract on
// purpose, to pin the orientation the row walk reads a pair in.
type asymLister struct{ rows [][]par.Neighbor }

func (a asymLister) Len() int { return len(a.rows) }

func (a asymLister) Sim(i, j int) float64 {
	row := a.rows[i]
	t := sort.Search(len(row), func(x int) bool { return row[x].Index >= j })
	if t < len(row) && row[t].Index == j {
		return row[t].Sim
	}
	return 0
}

func (a asymLister) AppendNeighbors(dst []par.Neighbor, i int) []par.Neighbor {
	return append(dst, a.rows[i]...)
}

// asymmetric returns inst with every subset's similarity replaced by an
// asymLister: each ordered pair is independently positive with probability
// density, with its own similarity.
func asymmetric(rng *rand.Rand, inst *par.Instance, density float64) *par.Instance {
	out := *inst
	out.Subsets = slices.Clone(inst.Subsets)
	for qi := range out.Subsets {
		k := len(out.Subsets[qi].Members)
		a := asymLister{rows: make([][]par.Neighbor, k)}
		for i := range a.rows {
			for j := 0; j < k; j++ {
				switch {
				case i == j:
					a.rows[i] = append(a.rows[i], par.Neighbor{Index: j, Sim: 1})
				case rng.Float64() < density:
					a.rows[i] = append(a.rows[i], par.Neighbor{Index: j, Sim: 0.01 + 0.99*rng.Float64()})
				}
			}
		}
		out.Subsets[qi].Sim = a
	}
	return &out
}

// sameSparsified fails unless got reports the counters of want and holds
// the same rows, index for index and similarity bit for bit.
func sameSparsified(t testing.TB, label string, want, got Result) {
	t.Helper()
	if got.PairsBefore != want.PairsBefore || got.PairsAfter != want.PairsAfter {
		t.Fatalf("%s: pairs before/after %d/%d, all-pairs loop %d/%d",
			label, got.PairsBefore, got.PairsAfter, want.PairsBefore, want.PairsAfter)
	}
	for qi := range want.Instance.Subsets {
		w := want.Instance.Subsets[qi].Sim.(par.NeighborLister)
		g := got.Instance.Subsets[qi].Sim.(par.NeighborLister)
		for i := 0; i < w.Len(); i++ {
			wr, gr := w.AppendNeighbors(nil, i), g.AppendNeighbors(nil, i)
			if !slices.EqualFunc(wr, gr, func(a, b par.Neighbor) bool {
				return a.Index == b.Index && math.Float64bits(a.Sim) == math.Float64bits(b.Sim)
			}) {
				t.Fatalf("%s: subset %d row %d: %v, all-pairs loop %v", label, qi, i, gr, wr)
			}
		}
	}
}

// checkRowWalk holds Exact over walk, whose similarities list their rows,
// to Exact's all-pairs loop over ref's similarities at τ.
func checkRowWalk(t testing.TB, label string, ref, walk *par.Instance, tau float64) {
	t.Helper()
	want, err := Exact(allPairs(ref), tau, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exact(walk, tau, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameSparsified(t, fmt.Sprintf("%s τ=%g", label, tau), want, got)
}

// TestExactRowWalkMatchesAllPairs: walking each row's neighbours j > i
// offers the pairs, similarities and order of the all-pairs loop, so the
// sparsified rows and both pair counters are identical, on every
// similarity the repository feeds the sparsifier: a wire-decoded SparseSim
// and its kernel views, a DenseSim's and the generator's vector
// similarities' kernel views, and an asymmetric lister, where the walk must
// read Sim(i, j) for i < j as the loop does. Kernel views after deltas are
// covered in internal/phocus (TestSparsifyRowWalkAfterDeltas).
func TestExactRowWalkMatchesAllPairs(t *testing.T) {
	vec, err := dataset.GeneratePublic(dataset.PublicSpecs(0.3)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0, 0.4, 0.75} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			dense := par.Random(rng, par.RandomConfig{Photos: 60, Subsets: 12, MaxSubset: 14, SimDensity: 0.6})
			wire := wireDecoded(t, dense)
			checkRowWalk(t, "wire SparseSim", wire, wire, tau)
			checkRowWalk(t, "views of wire SparseSim", wire, kernelViews(t, wire), tau)
			checkRowWalk(t, "views of DenseSim", dense, kernelViews(t, dense), tau)
			asym := asymmetric(rng, dense, 0.5)
			checkRowWalk(t, "asymmetric lister", asym, asym, tau)
		}
		checkRowWalk(t, "views of vector sims", vec.Instance, kernelViews(t, vec.Instance), tau)
	}
}

// FuzzSparsifyRows fuzzes instance shape, density, τ and similarity
// family, holding Exact's row walk to its all-pairs loop as
// TestExactRowWalkMatchesAllPairs does.
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
			checkRowWalk(t, "wire SparseSim", wire, wire, th)
		case 1:
			wire := wireDecoded(t, dense)
			checkRowWalk(t, "views of wire SparseSim", wire, kernelViews(t, wire), th)
		case 2:
			checkRowWalk(t, "views of DenseSim", dense, kernelViews(t, dense), th)
		case 3:
			asym := asymmetric(rng, dense, (float64(density)+1)/256)
			checkRowWalk(t, "asymmetric lister", asym, asym, th)
		}
	})
}
