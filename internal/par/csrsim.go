package par

import (
	"fmt"
	"sort"
)

// CSRSim is a read-only NeighborLister over flat CSR slabs: one shared
// neighbour array for a whole group of subsets plus a per-subset window of
// absolute row offsets into it. It is the similarity representation of
// loaded prepared snapshots — the slabs are views straight into the
// snapshot's read buffer, so constructing a CSRSim copies nothing and
// allocates only the two slice headers.
//
// rowStart holds k+1 absolute offsets into nbrs; row i of the subset is
// nbrs[rowStart[i]:rowStart[i+1]], sorted ascending by neighbour index and
// including the self-neighbour (similarity 1), exactly like SparseSim rows.
// Because offsets are absolute, many CSRSims can window one shared slab
// without any per-subset re-basing.
type CSRSim struct {
	rowStart []int64
	nbrs     []Neighbor
}

// NewCSRSim wraps the given slabs without copying. It validates the CSR
// invariants the rest of the solver stack assumes — monotone offsets in
// range, rows sorted by neighbour index without duplicates, neighbour
// indices within the subset, similarities in (0,1], self-neighbour present
// with similarity 1 — and returns a typed error on any violation, so
// untrusted snapshot bytes can never build a CSRSim that panics later.
func NewCSRSim(rowStart []int64, nbrs []Neighbor) (*CSRSim, error) {
	if len(rowStart) < 1 {
		return nil, fmt.Errorf("par: CSRSim needs at least one row offset")
	}
	k := len(rowStart) - 1
	for i := 0; i < k; i++ {
		lo, hi := rowStart[i], rowStart[i+1]
		if lo < 0 || hi < lo || hi > int64(len(nbrs)) {
			return nil, fmt.Errorf("par: CSRSim row %d spans [%d,%d) outside %d entries", i, lo, hi, len(nbrs))
		}
		self := false
		for t := lo; t < hi; t++ {
			nb := nbrs[t]
			if nb.Index < 0 || nb.Index >= k {
				return nil, fmt.Errorf("par: CSRSim row %d neighbour index %d out of [0,%d)", i, nb.Index, k)
			}
			if t > lo && nbrs[t-1].Index >= nb.Index {
				return nil, fmt.Errorf("par: CSRSim row %d not sorted at entry %d", i, t-lo)
			}
			if nb.Index == i {
				if nb.Sim != 1 {
					return nil, fmt.Errorf("par: CSRSim row %d self-similarity %g, want 1", i, nb.Sim)
				}
				self = true
			} else if !(nb.Sim > 0 && nb.Sim <= 1) {
				return nil, fmt.Errorf("par: CSRSim row %d similarity %g out of (0,1]", i, nb.Sim)
			}
		}
		if !self {
			return nil, fmt.Errorf("par: CSRSim row %d is missing its self-neighbour", i)
		}
	}
	return &CSRSim{rowStart: rowStart, nbrs: nbrs}, nil
}

// Len returns the number of members.
func (c *CSRSim) Len() int { return len(c.rowStart) - 1 }

// Neighbors returns the positive-similarity row of member i as a view into
// the shared slab; it must not be modified.
func (c *CSRSim) Neighbors(i int) []Neighbor {
	return c.nbrs[c.rowStart[i]:c.rowStart[i+1]]
}

// Sim returns the similarity of members i and j (0 if not neighbours) by
// binary search over the sorted row.
func (c *CSRSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	row := c.Neighbors(i)
	k := sort.Search(len(row), func(x int) bool { return row[x].Index >= j })
	if k < len(row) && row[k].Index == j {
		return row[k].Sim
	}
	return 0
}

// SizeBytes returns the memory retained by the similarity's own arrays.
// CSRSim views a shared slab it does not own, so it contributes nothing
// beyond its headers; the owning region is accounted once by the holder.
func (c *CSRSim) SizeBytes() int64 { return 0 }

// SizeBytes returns the memory retained by the packed upper triangle.
func (d *DenseSim) SizeBytes() int64 { return 8 * int64(len(d.vals)) }

// SizeBytes returns the memory retained by the sparse rows (16 bytes per
// stored neighbour plus one slice header per row).
func (s *SparseSim) SizeBytes() int64 {
	n := 24 * int64(len(s.rows)) // slice headers
	for _, row := range s.rows {
		n += 16 * int64(len(row))
	}
	return n
}
