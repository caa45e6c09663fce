package sparsify

import (
	"math/rand"
	"reflect"
	"testing"

	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
)

// subsetPairs flattens a sparsified instance into comparable neighbour rows.
func subsetPairs(t *testing.T, inst *par.Instance) [][][]par.Neighbor {
	t.Helper()
	var all [][][]par.Neighbor
	for qi := range inst.Subsets {
		nl, ok := inst.Subsets[qi].Sim.(par.NeighborLister)
		if !ok {
			t.Fatalf("subset %d similarity is not a NeighborLister", qi)
		}
		rows := make([][]par.Neighbor, inst.Subsets[qi].Sim.Len())
		for i := range rows {
			rows[i] = nl.AppendNeighbors(nil, i)
		}
		all = append(all, rows)
	}
	return all
}

// TestExactWorkerCountInvariant: the fanned-out exact sparsifier must
// produce the same counters and similarity structure at every GOMAXPROCS
// as the sequential path GOMAXPROCS 1 takes.
func TestExactWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inst := par.Random(rng, par.RandomConfig{Photos: 50, Subsets: 20, SimDensity: 0.7})
	sameAtEveryGOMAXPROCS(t, func() Result {
		res, err := Exact(inst, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

// TestWithLSHWorkerCountInvariant: with the same seed, the LSH sparsifier
// is byte-identical at every GOMAXPROCS — the hasher families are drawn
// before the fan-out, so the worker schedule cannot touch the randomness.
func TestWithLSHWorkerCountInvariant(t *testing.T) {
	inst, vecs := randomEmbeddedInstance(rand.New(rand.NewSource(5)), 60, 6)
	sameAtEveryGOMAXPROCS(t, func() Result {
		res, err := WithLSH(rand.New(rand.NewSource(99)), inst, vecs, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

// sameAtEveryGOMAXPROCS fails t unless run gives the counters and
// similarity structure at GOMAXPROCS 2 and 8 that it gives at 1.
func sameAtEveryGOMAXPROCS(t *testing.T, run func() Result) {
	var seq Result
	var seqRows [][][]par.Neighbor
	gomaxprocs.Each(t, func(workers int) {
		res := run()
		if workers == 1 { // the first level: the sequential reference
			seq, seqRows = res, subsetPairs(t, res.Instance)
			return
		}
		if res.PairsBefore != seq.PairsBefore || res.PairsAfter != seq.PairsAfter {
			t.Errorf("GOMAXPROCS=%d: pairs %d/%d, sequential %d/%d",
				workers, res.PairsAfter, res.PairsBefore, seq.PairsAfter, seq.PairsBefore)
		}
		if !reflect.DeepEqual(subsetPairs(t, res.Instance), seqRows) {
			t.Errorf("GOMAXPROCS=%d: sparsified similarities diverge", workers)
		}
	})
}

// TestWithLSHReportsPairsBefore is the regression test for the bug where the
// LSH path never set PairsBefore: on a dense clustered instance it must
// report PairsBefore ≥ PairsAfter > 0, so downstream sparsity-ratio metrics
// have a denominator.
func TestWithLSHReportsPairsBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst, vecs := randomEmbeddedInstance(rng, 60, 6)
	res, err := WithLSH(rng, inst, vecs, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsAfter <= 0 {
		t.Fatalf("PairsAfter = %d, want > 0 (clustered instance must keep pairs)", res.PairsAfter)
	}
	if res.PairsBefore < res.PairsAfter {
		t.Errorf("PairsBefore = %d < PairsAfter = %d", res.PairsBefore, res.PairsAfter)
	}
}

// TestWithLSHMixedDims: subsets alternating between embedding dimensions
// must each get a hasher of the right dimension (the per-dim cache must not
// hand a 16-dim family to a 32-dim subset or rebuild per subset).
func TestWithLSHMixedDims(t *testing.T) {
	rngA := rand.New(rand.NewSource(31))
	instA, vecsA := randomEmbeddedInstance(rngA, 40, 3) // dim 32
	// Shrink alternate subsets to a different dimension by truncating and
	// renormalizing their vectors; similarities inside the subset still come
	// from the instance's Sim, so only the LSH candidate stage sees the dims.
	for qi := 1; qi < len(vecsA); qi += 2 {
		for mi := range vecsA[qi] {
			v := append([]float64(nil), vecsA[qi][mi][:16]...)
			vecsA[qi][mi] = v
		}
	}
	res, err := WithLSH(rand.New(rand.NewSource(8)), instA, vecsA, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil || len(res.Instance.Subsets) != len(instA.Subsets) {
		t.Fatal("mixed-dim sparsification did not produce a full instance")
	}
}
