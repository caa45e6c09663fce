package par

import "fmt"

// This file gives the compiled Kernel an incremental-maintenance path: a
// mutation overlay that supports tombstoning the rows of removed members,
// appending rows for new members (and whole new subsets, and new photos) at
// the tail, and rewriting slot W·R weights after a relevance
// renormalization — without recompiling the flat slabs. The staged engine's
// Prepared.ApplyDelta drives these operations, and the overlaid kernel is
// the only similarity store it changes: the subsets read it back through
// kernel views (SetKernelSims), which skip tombstoned entries. When the
// dead-entry fraction grows past its threshold the engine compacts by
// compiling a fresh kernel from those views — one linear pass over the
// live entries, base spans and extras alike — which drops the overlay and
// restores the canonical flat layout.
//
// Row numbering under an overlay. The rows compiled by CompileKernel keep
// their original ids ("base rows", dense in [0, baseRows)); every member
// appended afterwards gets the next id in sequence ("tail rows", ids
// baseRows, baseRows+1, ...), regardless of which subset it joined. Tail
// rows have no span in the base CSR arrays — their entries live in the
// overlay's per-row extra lists, as do entries appended to base rows (a base
// member gaining a new neighbour) — but every row, base or tail, has its
// slot weight in slotWR. The flat best array an Evaluator allocates is
// indexed by these row ids; its total length (base + tail) always equals
// the instance's total member count, so evaluator allocation is unchanged —
// only the row→(subset,member) correspondence differs from the canonical
// subset-major layout, which is why CoverageVector maps each slot through
// RowOf while an overlay is active (see Kernel.Canonical).
//
// Bit-identity. Overlay gains must equal what a freshly compiled kernel over
// the updated instance computes, bit for bit. Entry order within a row is
// ascending member index in both layouts: base entries were compiled
// ascending, and appended members always have higher member indices than
// every existing entry of the rows they extend, so extras appended in
// arrival order stay ascending. Slot weights are the products
// W(q)·R(q, member) a fresh compile computes. A removed member's row is not
// spliced out; two zeros make it inert instead. Its own entries get sim 0,
// so they contribute wr·max(0−best, 0) = wr·(+0) = +0: the member never
// again covers anything. Its neighbours keep their mirror entries pointing
// at it, but its slot weight is W·0 = 0 once the caller renormalizes its
// relevance to 0 and rewrites, so those entries contribute 0·Δ = +0 too.
// Adding +0 leaves every gain unchanged, so the remaining summation order,
// and therefore the float result, is that of a fresh compile.
type kernOverlay struct {
	// subOff / baseLen freeze the compile-time subset layout: base subset q's
	// rows are subOff[q] .. subOff[q]+baseLen[q]-1.
	subOff  []int32
	baseLen []int32
	// baseRows / basePhotos freeze the compile-time row and photo counts.
	baseRows   int
	basePhotos int

	// tails[q] lists subset q's tail rows in member order (members beyond
	// baseLen[q] for base subsets; all members for appended subsets). len(tails)
	// tracks the current subset count.
	tails [][]int32
	// rowSub / rowMi / rowPhotos map tail row id r (indexed r-baseRows) back
	// to its (subset, member index) and the photo occupying it.
	rowSub    []int32
	rowMi     []int32
	rowPhotos []int32

	// extra[r] holds the entries appended to row r (base or tail), in
	// ascending member order; extraN counts them across all rows.
	extra  [][]kentry
	extraN int

	// tailOcc[p-basePhotos] lists the rows appended photos occupy, ascending by
	// subset; extraOcc[p] lists the tail rows base photo p gained by joining
	// appended subsets (base photos can only gain membership in new subsets, so
	// base occ followed by extraOcc stays subset-ascending).
	tailOcc  [][]int32
	extraOcc [][]int32

	// dead counts tombstoned entries (both directions of each dead pair), for
	// the live-fraction compaction heuristic; deadRow marks tombstoned rows
	// (their best values are meaningless — mirror entries of slot weight 0
	// still raise them — so coverage read-outs report 0 there, as a compiled
	// kernel over the updated instance would).
	dead    int
	deadRow []bool
}

// kentry is one overlay similarity entry, mirroring the parallel
// nbrIdx/nbrSim slabs; its weight is the slot weight of the row it targets.
type kentry struct {
	idx int32
	sim float64
}

// Canonical reports whether the kernel is in its compiled flat layout: no
// mutation overlay, subset-major row order. Overlaid kernels compute
// identical gains but their row numbering no longer matches the order
// CoverageVector's running offset and the snapshot codec assume, so they may
// not be serialized.
func (k *Kernel) Canonical() bool { return k.ov == nil }

// TotalRows returns the number of (subset, member) rows including appended
// tail rows.
func (k *Kernel) TotalRows() int {
	if k.ov == nil {
		return k.Rows()
	}
	return k.ov.baseRows + len(k.ov.rowSub)
}

// OverlayEntries returns the number of similarity entries living in the
// mutation overlay's per-row extra lists (0 for a canonical kernel). The
// engine's compaction heuristic bounds it relative to the compiled slabs:
// every row the overlay extends costs a second, separately allocated span
// on each gain that reads it, so a large overlay hurts even with few dead
// entries.
func (k *Kernel) OverlayEntries() int {
	if k.ov == nil {
		return 0
	}
	return k.ov.extraN
}

// LiveFraction returns the fraction of stored similarity entries that are
// still live (1 for a canonical kernel). The engine compacts when it drops
// below its threshold.
func (k *Kernel) LiveFraction() float64 {
	if k.ov == nil {
		return 1
	}
	total := len(k.nbrIdx) + k.ov.extraN
	if total == 0 {
		return 1
	}
	return float64(total-k.ov.dead) / float64(total)
}

// ensureOverlay materializes the mutation overlay on first use.
func (k *Kernel) ensureOverlay() *kernOverlay {
	if k.ov != nil {
		return k.ov
	}
	ov := &kernOverlay{
		subOff:     make([]int32, len(k.rowLen)),
		baseLen:    make([]int32, len(k.rowLen)),
		baseRows:   k.Rows(),
		basePhotos: k.photos,
		tails:      make([][]int32, len(k.rowLen)),
		extra:      make([][]kentry, k.Rows()),
		extraOcc:   make([][]int32, k.photos),
		deadRow:    make([]bool, k.Rows()),
	}
	var off int32
	for qi, l := range k.rowLen {
		ov.subOff[qi] = off
		ov.baseLen[qi] = l
		off += l
	}
	k.ov = ov
	return ov
}

// RowOf returns the global row id of subset q's mi-th member under the
// current layout (canonical or overlay).
func (k *Kernel) RowOf(q, mi int) int32 {
	if k.ov == nil {
		var off int32
		for qi := 0; qi < q; qi++ {
			off += k.rowLen[qi]
		}
		return off + int32(mi)
	}
	ov := k.ov
	if q < len(ov.subOff) && mi < int(ov.baseLen[q]) {
		return ov.subOff[q] + int32(mi)
	}
	if q < len(ov.subOff) {
		return ov.tails[q][mi-int(ov.baseLen[q])]
	}
	return ov.tails[q][mi]
}

// AppendSubset registers a new, initially empty subset at the end of the
// subset list; its members are added with AppendMemberRow.
func (k *Kernel) AppendSubset() {
	ov := k.ensureOverlay()
	k.rowLen = append(k.rowLen, 0)
	ov.tails = append(ov.tails, nil)
}

// AppendPhoto grows the photo count by one; the new photo occupies no rows
// until AppendMemberRow is called for it.
func (k *Kernel) AppendPhoto() {
	ov := k.ensureOverlay()
	k.photos++
	ov.tailOcc = append(ov.tailOcc, nil)
}

// AppendMemberRow appends photo p as the next member of subset q and records
// its similarity row: one entry per neighbour (earlier members of q only,
// ascending member index) plus the trailing self entry with sim 1. The new
// row's slot weight is written as 0 — the caller renormalizes relevance for
// the whole batch and then calls RewriteWR, which fills it. Calls for one
// photo must arrive in ascending subset order so its occurrence list stays
// sorted (base photos may only join appended subsets, which always sort
// after their base occurrences).
func (k *Kernel) AppendMemberRow(q int, p PhotoID, neighbors []Neighbor) int32 {
	ov := k.ensureOverlay()
	if q >= len(k.rowLen) {
		panic("par: AppendMemberRow subset out of range")
	}
	if int(p) >= k.photos {
		panic("par: AppendMemberRow photo out of range")
	}
	row := int32(ov.baseRows + len(ov.rowSub))
	mi := int(k.rowLen[q])
	ov.rowSub = append(ov.rowSub, int32(q))
	ov.rowMi = append(ov.rowMi, int32(mi))
	ov.rowPhotos = append(ov.rowPhotos, int32(p))
	ov.tails[q] = append(ov.tails[q], row)
	ov.extra = append(ov.extra, nil)
	ov.deadRow = append(ov.deadRow, false)
	k.slotWR = append(k.slotWR, 0)
	k.rowLen[q]++

	for _, nb := range neighbors {
		if nb.Index >= mi {
			panic("par: AppendMemberRow neighbour is not an earlier member")
		}
		nbRow := k.RowOf(q, nb.Index)
		ov.extra[row] = append(ov.extra[row], kentry{idx: nbRow, sim: nb.Sim})
		ov.extra[nbRow] = append(ov.extra[nbRow], kentry{idx: row, sim: nb.Sim})
		ov.extraN += 2
	}
	ov.extra[row] = append(ov.extra[row], kentry{idx: row, sim: 1})
	ov.extraN++

	if int(p) < ov.basePhotos {
		ov.extraOcc[p] = append(ov.extraOcc[p], row)
	} else {
		ov.tailOcc[int(p)-ov.basePhotos] = append(ov.tailOcc[int(p)-ov.basePhotos], row)
	}
	return row
}

// TombstoneRow zeroes the similarity of every entry of subset q's mi-th
// member's row except the self entry, so the removed member can never again
// contribute gain as a cover candidate. The symmetric entries in its
// neighbours' rows are left in place: after the caller renormalizes (the
// removed member's relevance drops to 0) and calls RewriteWR, its slot
// weight is 0, so they contribute exactly +0.0 to any gain — bit-identical
// to their absence. It returns the pairs the kernel loses: the row's
// positive entries to rows not yet tombstoned, whose own rows lost the
// pair already.
func (k *Kernel) TombstoneRow(q, mi int) (pairs int) {
	ov := k.ensureOverlay()
	r := k.RowOf(q, mi)
	if int(r) < ov.baseRows {
		lo, hi := k.rowStart[r], k.rowStart[r+1]
		for t := lo; t < hi; t++ {
			if k.nbrIdx[t] != r && k.nbrSim[t] != 0 {
				pairs += b2i(!ov.deadRow[k.nbrIdx[t]])
				k.nbrSim[t] = 0
			}
		}
	}
	ex := ov.extra[r]
	for t := range ex {
		if ex[t].idx != r && ex[t].sim != 0 {
			pairs += b2i(!ov.deadRow[ex[t].idx])
			ex[t].sim = 0
		}
	}
	// Each pair lost leaves a mirror entry of slot weight 0 in the
	// neighbour's row; count both sides as dead for the compaction
	// heuristic. A pair with a row tombstoned earlier was counted, both
	// sides, by that row's tombstone.
	ov.dead += 2 * pairs
	ov.deadRow[r] = true
	return pairs
}

// RowDead reports whether subset q's mi-th member row was tombstoned.
func (k *Kernel) RowDead(q, mi int) bool {
	return k.ov != nil && k.ov.deadRow[k.RowOf(q, mi)]
}

// RewriteWR refreshes the slot weight of each of subset q's rows after a
// relevance renormalization: slotWR = weight · rel[member]. It writes |q|
// slots, one per member; the entries need no rewrite, since each reads the
// weight of the slot it targets.
func (k *Kernel) RewriteWR(q int, weight float64, rel []float64) {
	ov := k.ensureOverlay()
	if q < len(ov.subOff) {
		base := k.slotWR[ov.subOff[q] : ov.subOff[q]+ov.baseLen[q]]
		for mi := range base {
			base[mi] = weight * rel[mi]
		}
	}
	for _, r := range ov.tails[q] {
		k.slotWR[r] = weight * rel[ov.rowMi[int(r)-ov.baseRows]]
	}
}

// occ returns the rows photo p occupies under the overlay layout, in subset
// order: base holds its compiled occurrences, extra the tail rows after them.
func (ov *kernOverlay) occ(k *Kernel, p PhotoID) (base, extra []int32) {
	if int(p) < ov.basePhotos {
		return k.occRow[k.occStart[p]:k.occStart[p+1]], ov.extraOcc[p]
	}
	return nil, ov.tailOcc[int(p)-ov.basePhotos]
}

// gain is Kernel.gain under an overlay: each row's compiled span, then its
// appended entries.
func (ov *kernOverlay) gain(k *Kernel, best []float64, p PhotoID) float64 {
	wr := k.slotWR
	var gain float64
	base, extra := ov.occ(k, p)
	for _, rows := range [2][]int32{base, extra} {
		for _, r := range rows {
			if int(r) < ov.baseRows {
				lo, hi := k.rowStart[r], k.rowStart[r+1]
				idx := k.nbrIdx[lo:hi]
				sim := k.nbrSim[lo:hi]
				for t, ix := range idx {
					gain += wr[ix] * max(sim[t]-best[ix], 0)
				}
			}
			for _, e := range ov.extra[r] {
				gain += wr[e.idx] * max(e.sim-best[e.idx], 0)
			}
		}
	}
	return gain
}

// add is Kernel.add under an overlay.
func (ov *kernOverlay) add(k *Kernel, best []float64, p PhotoID) float64 {
	wr := k.slotWR
	var gain float64
	base, extra := ov.occ(k, p)
	for _, rows := range [2][]int32{base, extra} {
		for _, r := range rows {
			if int(r) < ov.baseRows {
				lo, hi := k.rowStart[r], k.rowStart[r+1]
				idx := k.nbrIdx[lo:hi]
				sim := k.nbrSim[lo:hi]
				for t, ix := range idx {
					if d := sim[t] - best[ix]; d > 0 {
						gain += wr[ix] * d
						best[ix] = sim[t]
					}
				}
			}
			for _, e := range ov.extra[r] {
				if d := e.sim - best[e.idx]; d > 0 {
					gain += wr[e.idx] * d
					best[e.idx] = e.sim
				}
			}
		}
	}
	return gain
}

// overlayBytes estimates the memory retained by the overlay, for prepared-
// size accounting: its int32 index slices, one slice header per row, tail
// photo and base photo, 16 bytes per appended entry and one byte per row's
// dead flag. Slot weights of tail rows live in slotWR, which Kernel.SizeBytes
// counts.
func (ov *kernOverlay) overlayBytes() int64 {
	const header = 24 // a slice header: pointer, length, capacity
	n := 4 * int64(len(ov.subOff)+len(ov.baseLen)+len(ov.rowSub)+len(ov.rowMi)+len(ov.rowPhotos))
	for _, t := range ov.tails {
		n += header + 4*int64(len(t))
	}
	n += header*int64(len(ov.extra)) + 16*int64(ov.extraN)
	for _, o := range ov.tailOcc {
		n += header + 4*int64(len(o))
	}
	for _, o := range ov.extraOcc {
		n += header + 4*int64(len(o))
	}
	return n + int64(len(ov.deadRow))
}

// validateOverlayOrder is a test hook: it checks that every row's entries
// are in ascending member order (the bit-identity invariant) and that
// occurrence lists are subset-ascending.
func (k *Kernel) validateOverlayOrder() error {
	ov := k.ov
	if ov == nil {
		return nil
	}
	miGlobal := func(ix int32) (sub, mi int32) {
		if int(ix) >= ov.baseRows {
			return ov.rowSub[int(ix)-ov.baseRows], ov.rowMi[int(ix)-ov.baseRows]
		}
		for q := len(ov.subOff) - 1; q >= 0; q-- {
			if ix >= ov.subOff[q] {
				return int32(q), ix - ov.subOff[q]
			}
		}
		return -1, -1
	}
	for r, ex := range ov.extra {
		last := int32(-1)
		if r < ov.baseRows && k.rowStart[r] < k.rowStart[r+1] {
			_, last = miGlobal(k.nbrIdx[k.rowStart[r+1]-1])
		}
		for _, e := range ex {
			_, mi := miGlobal(e.idx)
			if mi <= last {
				return fmt.Errorf("par: row %d extras out of ascending member order", r)
			}
			last = mi
		}
	}
	for p := 0; p < k.photos; p++ {
		last := int32(-1)
		base, extra := ov.occ(k, PhotoID(p))
		for _, rows := range [2][]int32{base, extra} {
			for _, r := range rows {
				sub, _ := miGlobal(r)
				if sub <= last {
					return fmt.Errorf("par: photo %d occurrences out of ascending subset order", p)
				}
				last = sub
			}
		}
	}
	return nil
}
