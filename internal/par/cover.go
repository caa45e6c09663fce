package par

import "math"

// This file gives the compiled Kernel its cover index and the sweep that
// reads it: every photo's marginal gain against a solution, computed by
// pushing from slots instead of pulling per photo, bit-identical to Gain.
//
// Pull and push. Gain(p) walks the rows p occupies and, for every entry
// (p's row → slot j, similarity s), adds W·R(j)·max(s − best_j, 0). Most of
// those terms are +0: once a solution is in place, a slot's best value is
// usually above the similarity of all but a few of its neighbours. The sweep
// turns the loop around: it visits each slot j once and adds W·R(j)·(s −
// best_j) to the gain of every neighbour whose similarity s to j exceeds
// best_j. Reading those neighbours in descending similarity order, the walk
// stops at the first entry with s ≤ best_j, so it reads only the entries
// that contribute. The cover index holds that order: for every base row, its
// ≤ CoverK highest-similarity entries, descending. A row whose whole list is
// above best_j is scanned in full instead.
//
// Why the bits match. For one photo p, Gain adds its nonzero terms in
// (subset, target member) order: its occurrences run subset by subset, and
// within a row the entries run in ascending member order. The sweep visits
// slots in that same (subset, member) order — under a mutation overlay it
// maps each slot through the layout, as RowOf does, not by raw row id — and
// p occupies at most one row per subset, so each slot hands p at most one
// term and p receives its terms in Gain's order. The terms themselves are
// the same products: the kernel is symmetric (the Similarity contract), so
// row j's entry for p's row i holds the very bits row i's entry for j does,
// and for s > best_j, max(s − best_j, 0) is s − best_j. The terms the sweep
// leaves out are the ones Gain adds as +0, which leave a non-negative sum
// unchanged. The build checks the symmetry entry by entry, mirror bits
// included; a kernel that fails it gets no index, and its callers keep the
// pull pass.
//
// Overlays. The index covers the base rows compiled by CompileKernel and is
// never rebuilt after a delta. Base entries never change afterwards, except
// that a tombstoned row's own entries are zeroed, so four rules keep the
// sweep exact on an overlaid kernel: a slot of weight 0 (every dead slot)
// is skipped, since each of its terms is W·R·Δ = +0; a list entry targeting
// a dead row is skipped, since that row's own entry for the slot is zeroed
// and Gain adds +0 for it; every row's overlay extras, and every tail row,
// are scanned in full; and slots are visited in (subset, member) order. A
// compaction compiles a new kernel, which has no index until something
// asks for it.

// CoverK bounds each slot's cover list. On the P-100K ×0.05 engine instance
// (τ 0.4, 2 vCPUs) the bound took 2.5 ms at K 16, 1.4–1.5 ms at K 32 and
// 1.6–1.8 ms at K 64 at the 0.05 budget rung, and 0.9–1.3 ms at each K at
// the 0.30 rung: shorter lists run out and fall back to full-row scans,
// longer ones cost memory for no gain.
const CoverK = 32

// CoverIndex is a kernel's cover index. Base row r's list is
// sim[start[r]:start[r+1]] with the target rows in row[...]: the ≤ CoverK
// highest-similarity entries of r's compiled span, in descending similarity
// order. photo maps every base row to the photo occupying it. A list entry
// costs 12 bytes, a row 12 more (its offset and photo). The index is
// immutable once built.
type CoverIndex struct {
	start []int64
	sim   []float64
	row   []int32
	photo []int32
}

// noCovers marks a kernel whose build check failed: it has no index.
var noCovers = &CoverIndex{}

// Covers returns the kernel's cover index, building it on first use and
// keeping it for the kernel's lifetime — once, race-free, the way
// Instance.Kernel compiles. It is never serialized. It returns nil for a
// kernel whose entries are not exact mirrors of each other (an asymmetric
// similarity) or whose photos do not occupy their rows one per subset in
// subset order; such a kernel computes all-photo gains with the pull pass.
func (k *Kernel) Covers() *CoverIndex {
	c := k.cov.Load()
	if c == nil {
		k.covMu.Lock()
		if c = k.cov.Load(); c == nil {
			c = buildCovers(k)
			k.cov.Store(c)
		}
		k.covMu.Unlock()
	}
	if c == noCovers {
		return nil
	}
	return c
}

// sweepIndex returns the cover index an all-photo gain pass should sweep,
// or nil when the pass should pull. A kernel builds its index on its second
// pass, not its first: a build costs two thirds of a compile on the P-1K
// wire instance (3.0 ms, where the whole bound costs 0.5 ms), so a kernel
// that answers a single bound — a cold one-shot solve — never pays for it,
// and one that answers a second goes on to amortize it across every later
// Run.
func (k *Kernel) sweepIndex() *CoverIndex {
	if k.cov.Load() == nil && k.pulls.Add(1) == 1 {
		return nil
	}
	return k.Covers()
}

// CoverBytes returns the bytes of the kernel's cover index, and whether it
// has been built. The size is a function of the base rows' lengths alone,
// so callers can charge the index before it exists; once built, it is
// counted by SizeBytes too (as 0 bytes if the build check failed).
func (k *Kernel) CoverBytes() (n int64, built bool) {
	if c := k.cov.Load(); c != nil {
		return c.sizeBytes(), true
	}
	rows := k.Rows()
	var entries int64
	for r := 0; r < rows; r++ {
		entries += min(k.rowStart[r+1]-k.rowStart[r], CoverK)
	}
	return 12*entries + 8*int64(rows+1) + 4*int64(rows), false
}

// sizeBytes returns the bytes the index retains.
func (c *CoverIndex) sizeBytes() int64 {
	if c == noCovers {
		return 0
	}
	return 12*int64(len(c.sim)) + 8*int64(len(c.start)) + 4*int64(len(c.photo))
}

// coverEnt is one cover-list entry during the build.
type coverEnt struct {
	sim float64
	row int32
}

// buildCovers selects every base row's cover list and checks the kernel's
// layout and symmetry; it returns noCovers when a check fails. It costs two
// streaming passes per long row for the selection and one pass over the
// entries for the mirror check.
func buildCovers(k *Kernel) *CoverIndex {
	rows := k.Rows()
	var dead []bool
	lens := k.rowLen
	if k.ov != nil {
		dead, lens = k.ov.deadRow, k.ov.baseLen
	}

	// Every base row is occupied by exactly one photo, and each photo's rows
	// run in ascending subset order: Gain's term order.
	rowSub := make([]int32, 0, rows)
	for q, l := range lens {
		for range l {
			rowSub = append(rowSub, int32(q))
		}
	}
	c := &CoverIndex{photo: make([]int32, rows)}
	for r := range c.photo {
		c.photo[r] = -1
	}
	for p := 0; p+1 < len(k.occStart); p++ {
		last := int32(-1)
		for _, r := range k.occRow[k.occStart[p]:k.occStart[p+1]] {
			if c.photo[r] != -1 || rowSub[r] <= last {
				return noCovers
			}
			c.photo[r], last = int32(p), rowSub[r]
		}
	}
	for _, p := range c.photo {
		if p == -1 {
			return noCovers
		}
	}

	// Per-row partial selection into exactly sized lists, then the mirror
	// check.
	var n, widest int64
	for r := 0; r < rows; r++ {
		l := k.rowStart[r+1] - k.rowStart[r]
		n += min(l, CoverK)
		widest = max(widest, l)
	}
	c.start = make([]int64, rows+1)
	c.sim = make([]float64, n)
	c.row = make([]int32, n)
	buf := make([]coverEnt, 0, widest)
	var hist [coverBuckets + 1]int32
	var at int64
	for r := 0; r < rows; r++ {
		lo, hi := k.rowStart[r], k.rowStart[r+1]
		ents, ok := topEntries(buf, &hist, k.nbrSim[lo:hi], k.nbrIdx[lo:hi])
		if !ok {
			return noCovers
		}
		for _, e := range ents {
			c.sim[at], c.row[at] = e.sim, e.row
			at++
		}
		c.start[r+1] = at
	}
	if !mirrored(k, lens, dead) {
		return noCovers
	}
	return c
}

// coverBuckets is the resolution of the similarity histogram topEntries
// cuts a long row's candidates with: equal-width buckets over [0, 1].
const coverBuckets = 256

// bucket maps a similarity to its histogram bucket, clamped to the range.
func bucket(s float64) int {
	return min(max(int(s*coverBuckets), 0), coverBuckets)
}

// topEntries returns, in buf's storage, the ≤ CoverK highest-similarity
// entries of one row in descending similarity order; ok is false when the
// row's targets are not strictly ascending or a similarity is NaN. A row
// longer than CoverK costs two streaming passes and no sort of the row: a
// histogram of its similarities finds the bucket holding the CoverK-th
// largest, only entries from that bucket up enter buf, and selectTop cuts
// them to CoverK.
func topEntries(buf []coverEnt, hist *[coverBuckets + 1]int32, sim []float64, idx []int32) (ents []coverEnt, ok bool) {
	buf = buf[:0]
	for t := 1; t < len(idx); t++ {
		if idx[t] <= idx[t-1] {
			return nil, false
		}
	}
	if len(sim) <= CoverK {
		for t, s := range sim {
			if s != s {
				return nil, false
			}
			buf = append(buf, coverEnt{sim: s, row: idx[t]})
		}
		sortDesc(buf)
		return buf, true
	}
	*hist = [coverBuckets + 1]int32{}
	for _, s := range sim {
		if s != s {
			return nil, false
		}
		hist[bucket(s)]++
	}
	cut, above := coverBuckets, hist[coverBuckets]
	for above < CoverK {
		cut--
		above += hist[cut]
	}
	for t, s := range sim {
		if bucket(s) >= cut {
			buf = append(buf, coverEnt{sim: s, row: idx[t]})
		}
	}
	if len(buf) > CoverK {
		selectTop(buf, CoverK)
		buf = buf[:CoverK]
	}
	sortDesc(buf)
	return buf, true
}

// mirrored reports whether every live entry (j → i, s) between live base
// rows has the entry (i → j) with s's exact bits, with no live entry left
// unpaired and every entry targeting a row of its own subset. lens gives
// the base subsets' row counts, dead the tombstoned rows (nil for none).
// Rows list their targets in strictly ascending order (topEntries checked),
// so walking each row's entries above the diagonal with j ascending meets
// row i's entries below its diagonal in order, and one cursor per row
// pairs them off: by the time row j's own walk starts, its cursor must
// have passed every live entry below its diagonal.
func mirrored(k *Kernel, lens []int32, dead []bool) bool {
	isDead := func(r int32) bool { return dead != nil && dead[r] }
	rs, idx, sim := k.rowStart, k.nbrIdx, k.nbrSim
	cur := make([]int64, k.Rows()) // row r's next entry not yet paired
	copy(cur, rs)
	var lo int32
	for _, l := range lens {
		hi := lo + l
		for j := lo; j < hi; j++ {
			if isDead(j) {
				continue
			}
			for t := cur[j]; t < rs[j+1]; t++ {
				i := idx[t]
				if isDead(i) || i == j {
					continue
				}
				if i < j || i >= hi {
					return false // unpaired below the diagonal, or outside the subset
				}
				m := cur[i]
				for m < rs[i+1] && isDead(idx[m]) {
					m++
				}
				if m == rs[i+1] || idx[m] != j ||
					math.Float64bits(sim[m]) != math.Float64bits(sim[t]) {
					return false
				}
				cur[i] = m + 1
			}
		}
		lo = hi
	}
	return true
}

// selectTop reorders a so that its first n entries are n of its largest
// similarities (in no particular order): a Hoare-partition quickselect with
// a median-of-three pivot, expected O(len(a)). Requires 0 < n < len(a).
func selectTop(a []coverEnt, n int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		x, y, z := a[lo].sim, a[mid].sim, a[hi].sim
		p := max(min(x, y), min(max(x, y), z))
		i, j := lo, hi
		for i <= j {
			for a[i].sim > p {
				i++
			}
			for a[j].sim < p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] ≥ p, a[j+1..i-1] = p, a[i..hi] ≤ p: the boundary before
		// index n is settled unless it falls strictly inside either end.
		switch {
		case n <= j:
			hi = j
		case n > i:
			lo = i
		default:
			return
		}
	}
}

// sortDesc insertion-sorts a (at most CoverK entries) by descending
// similarity.
func sortDesc(a []coverEnt) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i
		for j > 0 && a[j-1].sim < e.sim {
			a[j] = a[j-1]
			j--
		}
		a[j] = e
	}
}

// sweep writes every photo's marginal gain against best into dst (one slot
// per photo) by pushing from slots; see the file comment for why each
// dst[p] equals gain(best, p) bit for bit. A photo in the solution that
// produced best gets 0, as Gain gives it: adding it raised every slot it
// could cover to at least its similarity, and the mirror entries carry the
// same bits.
func (k *Kernel) sweep(c *CoverIndex, best, dst []float64) {
	clear(dst)
	if k.ov != nil {
		k.ov.sweep(k, c, best, dst)
		return
	}
	wr := k.slotWR
	for j := range c.photo {
		if w := wr[j]; w != 0 {
			k.pushList(c, j, w, best[j], dst, nil)
		}
	}
}

// pushList adds slot j's terms from its compiled span to dst: the cover
// list down to the first entry at or below b, or the whole span when the
// list runs out above b. Entries targeting a row marked in dead are
// skipped.
func (k *Kernel) pushList(c *CoverIndex, j int, w, b float64, dst []float64, dead []bool) {
	lo, hi := c.start[j], c.start[j+1]
	if hi-lo == CoverK && c.sim[hi-1] > b && k.rowStart[j+1]-k.rowStart[j] > CoverK {
		idx := k.nbrIdx[k.rowStart[j]:k.rowStart[j+1]]
		sim := k.nbrSim[k.rowStart[j]:k.rowStart[j+1]]
		for t, i := range idx {
			if s := sim[t]; s > b && (dead == nil || !dead[i]) {
				dst[c.photo[i]] += w * (s - b)
			}
		}
		return
	}
	sim, row := c.sim[lo:hi], c.row[lo:hi]
	for t, s := range sim {
		if s <= b {
			break
		}
		if i := row[t]; dead == nil || !dead[i] {
			dst[c.photo[i]] += w * (s - b)
		}
	}
}

// sweep is Kernel.sweep under an overlay: slots in (subset, member) order,
// base members first, then the subset's tail rows; each slot's cover list
// (base rows only), then its extras in full.
func (ov *kernOverlay) sweep(k *Kernel, c *CoverIndex, best, dst []float64) {
	wr, dead := k.slotWR, ov.deadRow
	extras := func(j int32, w, b float64) {
		for _, e := range ov.extra[j] {
			if e.sim > b && !dead[e.idx] {
				p := ov.rowPhoto(c, e.idx)
				dst[p] += w * (e.sim - b)
			}
		}
	}
	for q := range ov.tails {
		if q < len(ov.subOff) {
			for j := ov.subOff[q]; j < ov.subOff[q]+ov.baseLen[q]; j++ {
				if w := wr[j]; w != 0 {
					b := best[j]
					k.pushList(c, int(j), w, b, dst, dead)
					extras(j, w, b)
				}
			}
		}
		for _, j := range ov.tails[q] {
			if w := wr[j]; w != 0 {
				extras(j, w, best[j])
			}
		}
	}
}

// rowPhoto returns the photo occupying row r: base rows from the cover
// index, tail rows from the overlay.
func (ov *kernOverlay) rowPhoto(c *CoverIndex, r int32) int32 {
	if int(r) < ov.baseRows {
		return c.photo[r]
	}
	return ov.rowPhotos[int(r)-ov.baseRows]
}
