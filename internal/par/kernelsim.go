package par

import "slices"

// kernelSim is the Similarity of one subset read back from a compiled
// kernel. A kernel's rows already hold every positive similarity of the
// instance — they are the bipartite slot–photo graph of the paper's GFL
// reduction (§4.3) — so a Prepared keeps no second copy: its subsets hold
// these views instead.
//
// Row i of the view is subset q's member i: one of the kernel's compiled
// rows for the first base members, an overlay tail row for members appended
// since. Entries are read as the kernel stores them, mapped from global rows
// back to member indices. Two kinds of entry are skipped, so the view shows
// exactly the similarity a kernel compiled over the updated instance holds:
// entries of similarity 0 (a tombstoned row's own entries) and entries
// targeting a tombstoned row (the mirror entries its neighbours keep). A
// tombstoned member keeps its self entry, as every member does.
type kernelSim struct {
	k    *Kernel
	q    int
	off  int32 // global row of member 0 among the compiled rows
	base int   // members with compiled rows; later members are tail rows
}

// SetKernelSims points every subset's Sim at a view of k's rows for it. k
// must span exactly these subsets (the kernel of their finalized instance).
// The views read k live: they follow k's overlay through later deltas, and
// a kernel compiled from them (CompileKernel) equals one compiled from the
// similarities they replaced. Callers that share the subsets slice with
// someone else clone it first: only the Sim fields are written.
func SetKernelSims(subsets []Subset, k *Kernel) {
	views := make([]kernelSim, len(subsets))
	var off int32
	for qi := range subsets {
		v := &views[qi]
		v.k, v.q = k, qi
		switch ov := k.ov; {
		case ov == nil:
			v.off, v.base = off, int(k.rowLen[qi])
			off += k.rowLen[qi]
		case qi < len(ov.subOff):
			v.off, v.base = ov.subOff[qi], int(ov.baseLen[qi])
		}
		subsets[qi].Sim = v
	}
}

// Len returns the subset's current member count.
func (v *kernelSim) Len() int { return int(v.k.rowLen[v.q]) }

// row returns the global row of member i.
func (v *kernelSim) row(i int) int32 {
	if i < v.base {
		return v.off + int32(i)
	}
	return v.k.ov.tails[v.q][i-v.base]
}

// member maps a global row of this subset back to its member index.
func (v *kernelSim) member(r int32) int {
	if ov := v.k.ov; ov != nil && int(r) >= ov.baseRows {
		return int(ov.rowMi[int(r)-ov.baseRows])
	}
	return int(r - v.off)
}

func (v *kernelSim) dead(r int32) bool { return v.k.ov != nil && v.k.ov.deadRow[r] }

// Sim returns the similarity of members i and j by binary search within
// row i: its compiled span, then its overlay entries.
func (v *kernelSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	k := v.k
	ri, rj := v.row(i), v.row(j)
	if v.dead(ri) || v.dead(rj) {
		return 0
	}
	if int(ri) < k.Rows() {
		lo, hi := k.rowStart[ri], k.rowStart[ri+1]
		if t, ok := slices.BinarySearch(k.nbrIdx[lo:hi], rj); ok {
			return k.nbrSim[lo+int64(t)]
		}
	}
	if k.ov != nil {
		ex := k.ov.extra[ri]
		if t, ok := slices.BinarySearchFunc(ex, rj, func(e kentry, r int32) int { return int(e.idx - r) }); ok {
			return ex[t].sim
		}
	}
	return 0
}

// live reports whether an entry of row r, targeting row ix with similarity
// s, belongs to the view's similarity.
func (v *kernelSim) live(r, ix int32, s float64) bool {
	return s != 0 && (ix == r || !v.dead(ix))
}

// neighborCount returns the length of member i's live row.
func (v *kernelSim) neighborCount(i int) int {
	k := v.k
	r := v.row(i)
	if k.ov == nil {
		return int(k.rowStart[r+1] - k.rowStart[r])
	}
	n := 0
	if int(r) < k.Rows() {
		for t := k.rowStart[r]; t < k.rowStart[r+1]; t++ {
			if v.live(r, k.nbrIdx[t], k.nbrSim[t]) {
				n++
			}
		}
	}
	for _, e := range k.ov.extra[r] {
		if v.live(r, e.idx, e.sim) {
			n++
		}
	}
	return n
}

// AppendNeighbors appends member i's live row to dst, in ascending member
// order.
func (v *kernelSim) AppendNeighbors(dst []Neighbor, i int) []Neighbor {
	k := v.k
	r := v.row(i)
	if int(r) < k.Rows() {
		for t := k.rowStart[r]; t < k.rowStart[r+1]; t++ {
			if ix, s := k.nbrIdx[t], k.nbrSim[t]; v.live(r, ix, s) {
				dst = append(dst, Neighbor{Index: v.member(ix), Sim: s})
			}
		}
	}
	if k.ov != nil {
		for _, e := range k.ov.extra[r] {
			if v.live(r, e.idx, e.sim) {
				dst = append(dst, Neighbor{Index: v.member(e.idx), Sim: e.sim})
			}
		}
	}
	return dst
}
