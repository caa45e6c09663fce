package par

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
)

// ReferenceDecodeJSONVectors is the decoder DecodeJSONVectors replaced,
// kept as the oracle the tests hold it to: encoding/json's Unmarshal into
// instanceJSON, then each subset's rows built in the oracle's own way,
// apart from buildSparse: every pair is checked and listed in both of its
// rows, a map catches a pair given twice, and each row, its self entry
// added, is sorted and laid out as the next span of the CSR slabs. It is
// exported (from a test file only) for the par_test benchmarks.
func ReferenceDecodeJSONVectors(data []byte) (*Instance, [][][]float64, error) {
	var in instanceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, nil, fmt.Errorf("par: decoding instance: %w", err)
	}
	inst := &Instance{
		Cost:     in.Costs,
		Retained: in.Retained,
		Budget:   in.Budget,
		Subsets:  make([]Subset, len(in.Subsets)),
	}
	var vectors [][][]float64
	for qi, sj := range in.Subsets {
		k := len(sj.Members)
		rows := make([][]Neighbor, k)
		seen := make(map[[2]int]bool, len(sj.Sim))
		for _, p := range sj.Sim {
			if p.I < 0 || p.I >= k || p.J < 0 || p.J >= k {
				return nil, nil, fmt.Errorf("par: subset %d similarity pair (%d,%d) out of range", qi, p.I, p.J)
			}
			if p.I == p.J {
				continue // diagonal is implicit
			}
			if p.Sim <= 0 || p.Sim > 1 {
				return nil, nil, fmt.Errorf("par: subset %d similarity %g out of (0,1]", qi, p.Sim)
			}
			pair := [2]int{min(p.I, p.J), max(p.I, p.J)}
			if seen[pair] {
				return nil, nil, fmt.Errorf("par: subset %d similarity pair (%d,%d) given twice", qi, p.I, p.J)
			}
			seen[pair] = true
			rows[p.I] = append(rows[p.I], Neighbor{Index: p.J, Sim: p.Sim})
			rows[p.J] = append(rows[p.J], Neighbor{Index: p.I, Sim: p.Sim})
		}
		sim := &SparseSim{start: make([]int, k+1), idx: make([]int32, 0, k+2*len(seen)), sim: make([]float64, 0, k+2*len(seen))}
		for i, row := range rows {
			row = append(row, Neighbor{Index: i, Sim: 1})
			slices.SortFunc(row, func(a, b Neighbor) int { return cmp.Compare(a.Index, b.Index) })
			for _, nb := range row {
				sim.idx = append(sim.idx, int32(nb.Index))
				sim.sim = append(sim.sim, nb.Sim)
			}
			sim.start[i+1] = len(sim.idx)
		}
		inst.Subsets[qi] = Subset{
			Name:      sj.Name,
			Weight:    sj.Weight,
			Members:   sj.Members,
			Relevance: sj.Relevance,
			Sim:       sim,
		}
		if len(sj.Vectors) > 0 {
			if len(sj.Vectors) != k {
				return nil, nil, fmt.Errorf("par: subset %d has %d vectors for %d members", qi, len(sj.Vectors), k)
			}
			dim := len(sj.Vectors[0])
			if dim == 0 {
				return nil, nil, fmt.Errorf("par: subset %d has an empty context vector", qi)
			}
			for vi, v := range sj.Vectors {
				if len(v) != dim {
					return nil, nil, fmt.Errorf("par: subset %d vector %d has dimension %d, want %d", qi, vi, len(v), dim)
				}
			}
			if vectors == nil {
				vectors = make([][][]float64, len(in.Subsets))
			}
			vectors[qi] = sj.Vectors
		}
	}
	if vectors != nil {
		for qi := range vectors {
			if vectors[qi] == nil {
				return nil, nil, fmt.Errorf("par: subset %d is missing context vectors (all subsets need them or none)", qi)
			}
		}
	}
	if err := inst.Finalize(); err != nil {
		return nil, nil, err
	}
	return inst, vectors, nil
}
