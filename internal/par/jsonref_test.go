package par

import (
	"encoding/json"
	"fmt"
)

// ReferenceDecodeJSONVectors is the decoder DecodeJSONVectors replaced,
// kept as the oracle the tests hold it to: encoding/json's Unmarshal into
// instanceJSON, then one SparseSim.Add per pair after a Contains check. It
// is exported (from a test file only) for the par_test benchmarks.
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
		sim := NewSparseSim(k)
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
			if sim.Contains(p.I, p.J) {
				return nil, nil, fmt.Errorf("par: subset %d similarity pair (%d,%d) given twice", qi, p.I, p.J)
			}
			sim.Add(p.I, p.J, p.Sim)
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
