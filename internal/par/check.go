package par

import (
	"fmt"
	"math"
	"math/rand"
)

// CheckSimilarity verifies by sampling that every subset's similarity
// behaves like the model requires — values in [0,1], symmetry, and 1 on
// the diagonal. Finalize cannot afford to enumerate all pairs of large
// subsets, so this check is separate; dataset generators and instance
// loaders run it in tests, and callers integrating external similarity
// sources should run it once per ingestion. samplesPerSubset bounds the
// random pairs checked per subset (the full diagonal is always checked).
func CheckSimilarity(rng *rand.Rand, inst *Instance, samplesPerSubset int) error {
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		k := len(q.Members)
		for i := 0; i < k; i++ {
			if got := q.Sim.Sim(i, i); got != 1 {
				return fmt.Errorf("par: subset %d (%q): SIM(p,p) = %g at member %d, want 1", qi, q.Name, got, i)
			}
		}
		if k < 2 {
			continue
		}
		for s := 0; s < samplesPerSubset; s++ {
			i := rng.Intn(k)
			j := rng.Intn(k)
			if i == j {
				continue
			}
			a := q.Sim.Sim(i, j)
			if a < 0 || a > 1 || math.IsNaN(a) {
				return fmt.Errorf("par: subset %d (%q): SIM(%d,%d) = %g outside [0,1]", qi, q.Name, i, j, a)
			}
			if b := q.Sim.Sim(j, i); math.Abs(a-b) > 1e-9 {
				return fmt.Errorf("par: subset %d (%q): SIM(%d,%d)=%g but SIM(%d,%d)=%g (asymmetric)",
					qi, q.Name, i, j, a, j, i, b)
			}
		}
		// Neighbour lists, when provided, must agree with Sim.
		if nl, ok := q.Sim.(NeighborLister); ok {
			var row []Neighbor
			for s := 0; s < samplesPerSubset/4+1; s++ {
				i := rng.Intn(k)
				row = nl.AppendNeighbors(row[:0], i)
				for _, nb := range row {
					if got := q.Sim.Sim(i, nb.Index); math.Abs(got-nb.Sim) > 1e-9 {
						return fmt.Errorf("par: subset %d (%q): neighbour list says SIM(%d,%d)=%g, Sim says %g",
							qi, q.Name, i, nb.Index, nb.Sim, got)
					}
				}
			}
		}
	}
	return nil
}
