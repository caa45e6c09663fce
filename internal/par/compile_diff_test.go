package par_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"phocus/internal/baselines"
	"phocus/internal/compress"
	"phocus/internal/dataset"
	"phocus/internal/dynamic"
	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
	"phocus/internal/study"
)

// countingSim counts its Sim calls, and the calls whose first member is the
// larger one. It hides any NeighborLister or UniformSim it wraps, so the
// compile tabulates it.
type countingSim struct {
	par.Similarity
	calls, reversed *atomic.Int64
}

func (c countingSim) Sim(i, j int) float64 {
	c.calls.Add(1)
	if i > j {
		c.reversed.Add(1)
	}
	return c.Similarity.Sim(i, j)
}

// compileInputs returns the instances the differential compiles, by name:
// every similarity the repository's solvers compile.
func compileInputs(t *testing.T) map[string]*par.Instance {
	t.Helper()
	inputs := map[string]*par.Instance{}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inputs[fmt.Sprintf("dense %d", seed)] = par.Random(rng, par.RandomConfig{
			Photos: 200, Subsets: 12, MaxSubset: 80, RetainFrac: 0.05, SimDensity: 0.5})
	}
	// The vector generators at the experiments' tier-1 scale. P-100K's
	// kernel is large enough that Threshold splits it over several runs,
	// and the tabulating pass its largest subset's rows.
	var p10k, p50k *dataset.Dataset
	for _, spec := range dataset.PublicSpecs(0.02) {
		ds, err := dataset.GeneratePublic(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs["vectors "+spec.Name] = ds.Instance
		switch spec.Name {
		case "P-10K":
			p10k = ds
		case "P-50K":
			p50k = ds
		}
	}
	for _, spec := range dataset.ECSpecs(0.02) {
		if spec.Domain != "Fashion" {
			continue
		}
		ds, err := dataset.GenerateEC(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs["EC-Fashion"] = ds.Instance
	}
	ex, err := compress.Expand(p10k.Instance, compress.DefaultLevels())
	if err != nil {
		t.Fatal(err)
	}
	inputs["compress variants"] = ex.Instance
	sub, _ := study.SubInstanceBySubsets(rand.New(rand.NewSource(5)), p50k.Instance, 300, 0.3)
	if sub == nil {
		t.Fatal("study: no sub-instance")
	}
	inputs["study remap"] = sub
	seed := make([]par.PhotoID, 0, p50k.Instance.NumPhotos()/2)
	for p := 0; p < p50k.Instance.NumPhotos(); p += 2 {
		seed = append(seed, par.PhotoID(p))
	}
	_, fed, err := dynamic.NewFeeder(p50k.Instance, seed)
	if err != nil {
		t.Fatal(err)
	}
	inputs["dynamic remap"] = fed.Instance
	ncs, err := baselines.NewGreedyNCS(p50k.GlobalSim).Surrogate(p50k.Instance)
	if err != nil {
		t.Fatal(err)
	}
	inputs["Greedy-NCS"] = ncs
	nr, err := baselines.NewGreedyNR().Surrogate(p50k.Instance)
	if err != nil {
		t.Fatal(err)
	}
	inputs["UniformSim (Greedy-NR)"] = nr
	return inputs
}

// finalized returns a finalized copy of inst, budget at its total cost as
// Prepare views it, with every similarity passed through wrap.
func finalized(t *testing.T, inst *par.Instance, wrap func(par.Similarity) par.Similarity) *par.Instance {
	t.Helper()
	out := &par.Instance{Cost: inst.Cost, Retained: inst.Retained, Budget: inst.TotalCost(),
		Subsets: make([]par.Subset, len(inst.Subsets))}
	for qi, q := range inst.Subsets {
		q.Sim = wrap(q.Sim)
		out.Subsets[qi] = q
	}
	if err := out.Finalize(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompileMatchesPerRowReference: the compile that reads each unordered
// pair once and mirrors it gives slabs == to the per-row reference, which
// reads every ordered pair, at GOMAXPROCS 1, 2 and 8, on every similarity
// the repository compiles. Wrapped so that every subset is tabulated, a
// subset of k members costs exactly k(k−1)/2 + k Sim calls, each with its
// smaller member first. Thresholding any of those kernels at GOMAXPROCS 1,
// 2 or 8 gives the sequential reference's slabs and pair counts.
func TestCompileMatchesPerRowReference(t *testing.T) {
	split := false
	for name, inst := range compileInputs(t) {
		inst = finalized(t, inst, func(s par.Similarity) par.Similarity { return s })
		ref := par.CompileKernelRef(inst)
		var pairs int64
		for _, q := range inst.Subsets {
			k := int64(len(q.Members))
			pairs += k*(k-1)/2 + k
		}
		var calls, reversed atomic.Int64
		wrapped := finalized(t, inst, func(s par.Similarity) par.Similarity {
			return countingSim{s, &calls, &reversed}
		})
		gomaxprocs.Each(t, func(n int) {
			par.SameSlabs(t, fmt.Sprintf("%s GOMAXPROCS=%d", name, n), ref, par.CompileKernel(inst))
			if n == 8 {
				// A row's calls do not depend on the run it falls in, so one
				// GOMAXPROCS prices every other.
				par.SameSlabs(t, name+" counted", ref, par.CompileKernel(wrapped))
			}
		})
		if calls.Load() != pairs || reversed.Load() != 0 {
			t.Fatalf("%s: %d Sim calls (%d larger member first), want %d pairs and diagonals",
				name, calls.Load(), reversed.Load(), pairs)
		}
		split = split || ref.ThresholdRuns(8) >= 3
		for _, tau := range []float64{1e-9, 0.4, 1} {
			want, before, after := par.ThresholdRef(ref, tau)
			gomaxprocs.Each(t, func(n int) {
				label := fmt.Sprintf("%s threshold τ=%g GOMAXPROCS=%d", name, tau, n)
				got, b, a := ref.Threshold(tau)
				par.SameSlabs(t, label, want, got)
				if b != before || a != after {
					t.Fatalf("%s: pairs %d/%d, reference %d/%d", label, b, a, before, after)
				}
			})
		}
	}
	if !split {
		t.Fatal("no kernel thresholds in three runs or more: the run boundaries went untested")
	}
}
