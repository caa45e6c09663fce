package celf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phocus/internal/par"
)

// pullBound is the online bound as a pull pass computes it: every archived
// photo's gain evaluated on its own (Evaluator.GainsInto), then the same
// fractional knapsack.
func pullBound(inst *par.Instance, e *par.Evaluator, rest []par.PhotoID) float64 {
	var b BoundScratch
	b.gains = make([]float64, inst.NumPhotos())
	gains := make([]float64, len(rest))
	e.GainsInto(gains, rest)
	for i, g := range gains {
		b.gains[rest[i]] = g
	}
	return b.knapsack(inst, e.Score(), rest)
}

// boundSolutions returns the solutions the bound tests hold fixed: the
// empty set, S0 alone, CELF's answer, every photo and a random set.
func boundSolutions(t *testing.T, rng *rand.Rand, inst *par.Instance) map[string][]par.PhotoID {
	t.Helper()
	var s Solver
	sol, err := s.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]par.PhotoID, inst.NumPhotos())
	var random []par.PhotoID
	for p := range all {
		all[p] = par.PhotoID(p)
		if rng.Intn(3) == 0 {
			random = append(random, par.PhotoID(p))
		}
	}
	return map[string][]par.PhotoID{"empty": nil, "S0": inst.Retained, "celf": sol.Photos, "all": all, "random": random}
}

// sameBounds holds BoundScratch.OnlineBound to pullBound, bit for bit, for
// every solution, on two calls each: a kernel's first all-photo pass pulls
// and its second builds and sweeps the cover index.
func sameBounds(t *testing.T, rng *rand.Rand, inst *par.Instance, label string) {
	t.Helper()
	var b BoundScratch
	for name, sol := range boundSolutions(t, rng, inst) {
		e := par.NewEvaluator(inst)
		for _, p := range sol {
			e.Add(p)
		}
		var rest []par.PhotoID
		for p := 0; p < inst.NumPhotos(); p++ {
			if !e.Contains(par.PhotoID(p)) {
				rest = append(rest, par.PhotoID(p))
			}
		}
		want := pullBound(inst, e, rest)
		for call := 1; call <= 2; call++ {
			if got := b.OnlineBound(inst, e, rest); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s call %d: bound %v, pull reference %v", label, name, call, got, want)
			}
		}
	}
}

// TestOnlineBoundMatchesPull: on symmetric instances, with subsets both
// shorter and longer than the cover lists, the swept bound equals the pull
// reference bit for bit for every solution, and the cover index exists.
func TestOnlineBoundMatchesPull(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{
			Photos:     40 + rng.Intn(120),
			Subsets:    2 + rng.Intn(10),
			MaxSubset:  4 + rng.Intn(2*par.CoverK+8),
			RetainFrac: 0.05,
			SimDensity: 0.3 + 0.7*rng.Float64(),
		})
		sameBounds(t, rng, inst, fmt.Sprintf("seed %d", seed))
		if inst.Kernel().Covers() == nil {
			t.Fatalf("seed %d: symmetric kernel has no cover index", seed)
		}
	}
}

// listedSim is a test-only NeighborLister that lists row i as Sim(mi, i)
// for every member mi, the orientation in which adding i covers mi. The
// compile copies a listed row as it is, so an asymmetric similarity keeps
// its two directions apart in the kernel; a tabulated one would not, since
// the compile reads each pair once.
type listedSim struct{ par.FuncSim }

func (l listedSim) AppendNeighbors(dst []par.Neighbor, i int) []par.Neighbor {
	for mi := range l.N {
		if s := l.Sim(mi, i); s > 0 {
			dst = append(dst, par.Neighbor{Index: mi, Sim: s})
		}
	}
	return dst
}

// TestOnlineBoundAsymmetric: a kernel whose two directions of a pair
// disagree in the last bit breaks the symmetry the sweep relies on. The
// kernel gets no cover index, and the bound stays the pull reference's.
func TestOnlineBoundAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := par.Random(rng, par.RandomConfig{Photos: 60, Subsets: 8, MaxSubset: 20, SimDensity: 0.7})
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		dense := q.Sim
		q.Sim = listedSim{par.FuncSim{N: len(q.Members), F: func(i, j int) float64 {
			s := dense.Sim(i, j)
			if i < j && s > 0 {
				return math.Nextafter(s, 0)
			}
			return s
		}}}
	}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	sameBounds(t, rng, inst, "asymmetric")
	if inst.Kernel().Covers() != nil {
		t.Fatal("asymmetric kernel built a cover index")
	}
}
