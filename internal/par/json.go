package par

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"phocus/internal/pool"
)

// The JSON wire format is how instances travel between the data generator,
// the CLI and the HTTP server. Similarities are serialized sparsely as
// (i, j, sim) triples over member indices, with the diagonal implied.

type instanceJSON struct {
	Costs    []float64    `json:"costs"`
	Retained []PhotoID    `json:"retained,omitempty"`
	Budget   float64      `json:"budget"`
	Subsets  []subsetJSON `json:"subsets"`
}

type subsetJSON struct {
	Name      string     `json:"name"`
	Weight    float64    `json:"weight"`
	Members   []PhotoID  `json:"members"`
	Relevance []float64  `json:"relevance"`
	Sim       []pairJSON `json:"sim"`
	// Vectors optionally carries one context-embedding vector per member
	// (same order), enabling LSH sparsification on the receiving side.
	Vectors [][]float64 `json:"vectors,omitempty"`
	// trip holds a split decoder's triples, in its scratch, until finish
	// builds them into sparse and lets them go.
	trip   []simPair
	sparse *SparseSim
}

type pairJSON struct {
	I   int     `json:"i"`
	J   int     `json:"j"`
	Sim float64 `json:"s"`
}

// WriteJSON serializes the instance. Subset similarities are enumerated
// pairwise, so this is intended for instances of CLI scale, not for the
// largest benchmark datasets.
func WriteJSON(w io.Writer, inst *Instance) error {
	return WriteJSONVectors(w, inst, nil)
}

// WriteJSONVectors is WriteJSON with optional per-subset context vectors
// (one vector per member, subset order matching inst.Subsets), so receivers
// can run LSH sparsification. A nil vectors slice writes the plain format.
func WriteJSONVectors(w io.Writer, inst *Instance, vectors [][][]float64) error {
	if vectors != nil && len(vectors) != len(inst.Subsets) {
		return fmt.Errorf("par: %d vector groups for %d subsets", len(vectors), len(inst.Subsets))
	}
	out := instanceJSON{
		Costs:    inst.Cost,
		Retained: inst.Retained,
		Budget:   inst.Budget,
		Subsets:  make([]subsetJSON, len(inst.Subsets)),
	}
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		sj := subsetJSON{
			Name:      q.Name,
			Weight:    q.Weight,
			Members:   q.Members,
			Relevance: q.Relevance,
		}
		k := len(q.Members)
		if nl, ok := q.Sim.(NeighborLister); ok {
			var row []Neighbor
			for i := 0; i < k; i++ {
				row = nl.AppendNeighbors(row[:0], i)
				for _, nb := range row {
					if nb.Index > i { // emit each pair once
						sj.Sim = append(sj.Sim, pairJSON{I: i, J: nb.Index, Sim: nb.Sim})
					}
				}
			}
		} else {
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if s := q.Sim.Sim(i, j); s > 0 {
						sj.Sim = append(sj.Sim, pairJSON{I: i, J: j, Sim: s})
					}
				}
			}
		}
		if vectors != nil {
			if len(vectors[qi]) != k {
				return fmt.Errorf("par: subset %d has %d vectors for %d members", qi, len(vectors[qi]), k)
			}
			sj.Vectors = vectors[qi]
		}
		out.Subsets[qi] = sj
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// ReadJSON parses an instance previously produced by WriteJSON (or written
// by hand) and finalizes it. Sparse similarities are loaded into SparseSim.
func ReadJSON(r io.Reader) (*Instance, error) {
	inst, _, err := ReadJSONVectors(r)
	return inst, err
}

// ReadJSONVectors is ReadJSON returning the optional per-subset context
// vectors alongside the instance. It reads r to the end and decodes the
// bytes with DecodeJSONVectors.
func ReadJSONVectors(r io.Reader) (*Instance, [][][]float64, error) {
	// bytes.Buffer doubles as it grows, where io.ReadAll grows large
	// buffers by a quarter and so allocates several times the body.
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, fmt.Errorf("par: reading instance: %w", err)
	}
	return DecodeJSONVectors(buf.Bytes())
}

// DecodeJSONVectors parses one wire-format instance from data and finalizes
// it. Only whitespace may follow the instance object. vectors is nil when
// no subset carried any; otherwise it has one (possibly nil) group per
// subset, validated to hold one vector per member with a uniform positive
// dimension. The result shares no memory with data. A large body's subsets
// are decoded on every CPU, with the serial decode's result and errors.
func DecodeJSONVectors(data []byte) (*Instance, [][][]float64, error) {
	return decodeJSONVectors(&jsonDecoder{data: data, splits: pool.Resolve(0), splitFloor: splitFloorBytes})
}

// decodeJSONVectors is DecodeJSONVectors over the decoder d.
func decodeJSONVectors(d *jsonDecoder) (*Instance, [][][]float64, error) {
	in, err := d.decode()
	if err != nil {
		return nil, nil, fmt.Errorf("par: decoding instance: %w", err)
	}
	return in.build()
}

// build validates the decoded wire form and turns it into a finalized
// instance plus its optional context vectors.
func (in *instanceJSON) build() (*Instance, [][][]float64, error) {
	inst := &Instance{
		Cost:     in.Costs,
		Retained: in.Retained,
		Budget:   in.Budget,
		Subsets:  make([]Subset, len(in.Subsets)),
	}
	var vectors [][][]float64
	var scratch []simPair
	for qi, sj := range in.Subsets {
		k := len(sj.Members)
		sim := sj.sparse
		if sim == nil {
			var err error
			if sim, err = buildSparseSim(qi, k, sj.Sim, &scratch); err != nil {
				return nil, nil, err
			}
		}
		in.Subsets[qi].Sim, in.Subsets[qi].sparse = nil, nil // garbage from here on
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

// buildSparseSim turns subset qi's similarity triples over k members into a
// SparseSim, using *scratch for the checked pairs. Pairs are checked in
// input order — index range, then the implicit diagonal (skipped), then a
// similarity in (0,1], then a pair given twice in either orientation — and
// the first bad one is the error.
func buildSparseSim(qi, k int, pairs []pairJSON, scratch *[]simPair) (*SparseSim, error) {
	valid := slices.Grow((*scratch)[:0], len(pairs))
	defer func() { *scratch = valid[:0] }()
	var bad error
	for _, p := range pairs {
		if p.I < 0 || p.I >= k || p.J < 0 || p.J >= k {
			bad = fmt.Errorf("par: subset %d similarity pair (%d,%d) out of range", qi, p.I, p.J)
			break
		}
		if p.I == p.J {
			continue // diagonal is implicit
		}
		if p.Sim <= 0 || p.Sim > 1 {
			bad = fmt.Errorf("par: subset %d similarity %g out of (0,1]", qi, p.Sim)
			break
		}
		valid = append(valid, simPair{int32(p.I), int32(p.J), p.Sim})
	}
	// A pair that repeats an earlier one comes before any bad pair, since
	// only the pairs ahead of that are built.
	sim, err := buildSparse(k, valid, func(i, j int) error {
		return fmt.Errorf("par: subset %d similarity pair (%d,%d) given twice", qi, i, j)
	})
	if err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, bad
	}
	return sim, nil
}
