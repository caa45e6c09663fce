package par

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"phocus/internal/pool"
)

// Kernel is the compiled gain kernel: the entire marginal-gain/add hot path
// of an instance flattened into contiguous arrays at compile time, so that
// Evaluator.Gain and Evaluator.Add become branch-light scans over parallel
// slices with zero interface dispatch and one multiplication per entry.
//
// Layout. Every (subset, member) pair is one global row; rows are numbered
// in subset order, member order (row = Σ_{q'<q} |q'| + member index), the
// same order the Evaluator lays its flat best array out in. The similarity
// structure of all subsets is stored as one CSR matrix across those rows:
//
//	rowStart[r] .. rowStart[r+1]  span of row r's entries in the two
//	                              parallel entry arrays
//	nbrIdx[t]                     the neighbour's GLOBAL row (already offset
//	                              by its subset), i.e. an index into the
//	                              evaluator's flat best array
//	nbrSim[t]                     SIM(q, member, neighbour), in (0, 1]
//
// plus one weight per row:
//
//	slotWR[r]                     W(q)·R(q, member) of row r's slot
//
// The objective weighs each (subset, member) slot once, so W·R is stored
// once per row, not once per entry: an entry t reads the weight of the slot
// it may cover, slotWR[nbrIdx[t]], through the same index it reads the
// slot's best value with.
//
// Entry order within a row matches a direct walk of each subset's
// similarity exactly — a NeighborLister's listed order, ascending member
// index for dense similarities — and each slot weight is the product
// W(q)·R(q,p) the reference multiplies by Δ, so kernel gains are
// bit-identical to the test-only jagged reference evaluator.
//
// Per-photo occurrences are resolved to row spans too: occRow[occStart[p]
// .. occStart[p+1]] lists, in Occurrences(p) order, the global row of every
// (subset, member) slot photo p occupies.
//
// A Kernel is immutable after CompileKernel and safe for concurrent use by
// any number of evaluators; it holds no per-solution state (the flat best
// array lives in the Evaluator).
type Kernel struct {
	photos   int     // NumPhotos of the compiled instance
	rowLen   []int32 // per-subset member counts, for attach-time validation
	rowStart []int64
	nbrIdx   []int32
	nbrSim   []float64
	slotWR   []float64
	occStart []int32
	occRow   []int32

	// ov is the incremental-maintenance overlay (see kerneldelta.go); nil for
	// a canonical compiled kernel. While an overlay is active the kernel is
	// NOT immutable — the engine serializes mutation against concurrent reads.
	ov *kernOverlay

	// cov is the cover index (see cover.go), built by the first Covers call;
	// covMu serializes that build. pulls counts the all-photo gain passes
	// that ran without it (see sweepIndex).
	covMu sync.Mutex
	cov   atomic.Pointer[CoverIndex]
	pulls atomic.Int32
}

// CompileKernel flattens the instance's gain hot path into a Kernel. The
// instance must be finalized. Its layout — row lengths, slot weights and
// occurrence index — comes from kernelLayout; the passes below fill the
// entry slabs.
// Compilation costs one pass over the similarity structure — O(pairs) for
// NeighborLister similarities, k(k+1)/2 Sim calls for a k-member subset of
// any other similarity (each unordered pair once, and the diagonal), none
// for UniformSim — and is meant to run once per prepared instance,
// amortized across every solve against it. Over subsets that hold views of
// another kernel (SetKernelSims) it is one linear pass over that kernel's
// live entries, which is how an overlaid kernel is compacted back to the
// canonical layout.
//
// The rows are spread over GOMAXPROCS workers, in runs of about equal cost
// (a large subset's rows split over several runs), and every slab is
// allocated once, at its final size. A subset whose similarity is neither a
// NeighborLister nor UniformSim is first tabulated into one k×k buffer:
// row i of that pass computes Sim(mi, i) for mi ≤ i and writes each value
// into both rows mi and i, so cell (r, c) holds Sim(min(r, c), max(r, c)),
// which par.Similarity requires to be symmetric. A sizing pass
// then counts each row's entries: positive buffer cells, SparseSim and
// kernel view row lengths, listed rows of other NeighborLister
// similarities, every member for UniformSim. The last pass fills each
// row's span of the slabs; a SparseSim row is copied span for span. A row's entries depend on the buffer and that
// row alone, so the slabs are the same, == for ==, at every GOMAXPROCS.
func CompileKernel(inst *Instance) *Kernel {
	if inst.occ == nil {
		panic("par: CompileKernel before Finalize")
	}
	k, err := kernelLayout(inst.NumPhotos(), inst.Subsets)
	if err != nil {
		panic(err) // a finalized instance can only be too large
	}
	nSub := len(inst.Subsets)
	subOff := make([]int32, nSub+1)
	// tab[qi] is the k×k buffer of a tabulated subset, nil for the others.
	tab := make([][]float64, nSub)
	tabulated := false
	for qi, members := range k.rowLen {
		subOff[qi+1] = subOff[qi] + members
		if tabulates(inst.Subsets[qi].Sim) {
			tab[qi] = make([]float64, int(members)*int(members))
			tabulated = true
		}
	}
	rows := int(subOff[nSub])
	workers := runtime.GOMAXPROCS(0)

	// Pass 1: each unordered pair of a tabulated subset, computed once by
	// the row of its larger member: row i computes Sim(mi, i) for mi ≤ i,
	// the orientation in which adding member i covers slot mi, and writes
	// it to cells (i, mi) and (mi, i). Every cell is written by exactly one
	// row.
	if tabulated {
		triangle := rowRuns(inst, subOff, workers, func(qi, i int) int64 {
			if tab[qi] == nil {
				return 0
			}
			return int64(i + 1)
		})
		eachRun(inst, subOff, triangle, workers, func(qi, lo, hi int) {
			buf := tab[qi]
			if buf == nil {
				return
			}
			sim := inst.Subsets[qi].Sim
			m := len(inst.Subsets[qi].Members)
			for i := lo; i < hi; i++ {
				row := buf[i*m : i*m+i+1]
				for mi := range row {
					s := sim.Sim(mi, i)
					row[mi] = s
					buf[mi*m+i] = s
				}
			}
		})
	}
	runs := rowRuns(inst, subOff, workers, func(qi, _ int) int64 {
		return int64(len(inst.Subsets[qi].Members))
	})

	// Pass 2: row lengths, each parked at rowStart[r+1] until the prefix
	// sum turns the lengths into offsets.
	k.rowStart = make([]int64, rows+1)
	eachRun(inst, subOff, runs, workers, func(qi, lo, hi int) {
		q := &inst.Subsets[qi]
		off := int(subOff[qi])
		lens := k.rowStart[off+1+lo : off+1+hi]
		m := len(q.Members)
		switch sim := q.Sim.(type) {
		case neighborCounter:
			for i := range lens {
				lens[i] = int64(sim.neighborCount(lo + i))
			}
		case NeighborLister:
			var row []Neighbor
			for i := range lens {
				row = sim.AppendNeighbors(row[:0], lo+i)
				lens[i] = int64(len(row))
			}
		case UniformSim:
			for i := range lens {
				lens[i] = int64(m)
			}
		default:
			buf := tab[qi]
			for i := range lens {
				n := 0
				for _, s := range buf[(lo+i)*m : (lo+i+1)*m] {
					n += b2i(s > 0)
				}
				lens[i] = int64(n)
			}
		}
	})
	for r := 0; r < rows; r++ {
		k.rowStart[r+1] += k.rowStart[r]
	}

	// Pass 3: each row fills its own span of the entry slabs.
	entries := k.rowStart[rows]
	k.nbrIdx = make([]int32, entries)
	k.nbrSim = make([]float64, entries)
	eachRun(inst, subOff, runs, workers, func(qi, lo, hi int) {
		q := &inst.Subsets[qi]
		off := subOff[qi]
		m := len(q.Members)
		switch sim := q.Sim.(type) {
		case *SparseSim:
			// The rows are already in kernel order: a copy of each span,
			// its indices offset by the subset's first row.
			for i := lo; i < hi; i++ {
				t, a, b := k.rowStart[int(off)+i], sim.start[i], sim.start[i+1]
				copy(k.nbrSim[t:], sim.sim[a:b])
				for x, j := range sim.idx[a:b] {
					k.nbrIdx[t+int64(x)] = off + j
				}
			}
		case NeighborLister:
			var row []Neighbor
			for i := lo; i < hi; i++ {
				r := int(off) + i
				t := k.rowStart[r]
				row = sim.AppendNeighbors(row[:0], i)
				if int64(len(row)) != k.rowStart[r+1]-t {
					panic("par: CompileKernel: a row's listing changed length between passes")
				}
				for _, nb := range row {
					k.nbrIdx[t] = off + int32(nb.Index)
					k.nbrSim[t] = nb.Sim
					t++
				}
			}
		case UniformSim:
			for i := lo; i < hi; i++ {
				t := k.rowStart[int(off)+i]
				idx, sims := k.nbrIdx[t:t+int64(m)], k.nbrSim[t:t+int64(m)]
				for mi := range idx {
					idx[mi], sims[mi] = off+int32(mi), 1
				}
			}
		default:
			// Zero-similarity entries can never satisfy sim > best (best ≥ 0
			// always), so dropping them changes no sum. The fill writes
			// every cell and advances past the positive ones, as Threshold
			// does.
			for i := lo; i < hi; i++ {
				t := k.rowStart[int(off)+i]
				row := tab[qi][i*m : (i+1)*m]
				// The least positive float64: a cell clears it iff s > 0.
				for mi, s := range row[:lastKept(row, math.SmallestNonzeroFloat64)] {
					k.nbrIdx[t], k.nbrSim[t] = off+int32(mi), s
					t += int64(b2i(s > 0))
				}
			}
		}
	})

	return k
}

// maxKernelRows is the most (subset, member) rows a kernel spans: the row
// count plus one still fits the int32 that row indices are stored as.
const maxKernelRows = 1<<31 - 2

// kernelLayout returns a kernel of the given subsets over photos photos that
// holds their layout and no entries yet: the member count of every subset,
// the slot weight W(q)·R(q, member) of every row, and the occurrence index,
// which lists each photo's rows in ascending order, the order Finalize
// records its occurrences in. All of it follows from subset membership, so
// it is the one place a kernel's layout is built: CompileKernel and
// KernelFromEntries both call it, and only the entry slabs are ever data.
//
// The subsets need not be validated (Finalize may not have run): a member
// outside [0, photos) or a relevance list whose length is not the member
// count is an error, returned before either is used as an index.
func kernelLayout(photos int, subsets []Subset) (*Kernel, error) {
	rowLen := make([]int32, len(subsets))
	rows := 0
	for qi := range subsets {
		q := &subsets[qi]
		if len(q.Relevance) != len(q.Members) {
			return nil, fmt.Errorf("par: kernel layout: subset %d has %d members but %d relevance scores",
				qi, len(q.Members), len(q.Relevance))
		}
		if rows += len(q.Members); rows > maxKernelRows {
			return nil, fmt.Errorf("par: kernel layout: more than %d similarity rows", maxKernelRows)
		}
		rowLen[qi] = int32(len(q.Members))
	}
	k := &Kernel{
		photos:   photos,
		rowLen:   rowLen,
		slotWR:   make([]float64, 0, rows),
		occStart: make([]int32, photos+1),
		occRow:   make([]int32, rows),
	}
	// Count each photo's rows at occStart[p+1], then prefix-sum the counts
	// into the photos' first occurrences.
	for qi := range subsets {
		q := &subsets[qi]
		for i, p := range q.Members {
			if p < 0 || int(p) >= photos {
				return nil, fmt.Errorf("par: kernel layout: subset %d member %d is photo %d, outside [0,%d)",
					qi, i, p, photos)
			}
			k.occStart[p+1]++
			k.slotWR = append(k.slotWR, q.Weight*q.Relevance[i])
		}
	}
	for p := range photos {
		k.occStart[p+1] += k.occStart[p]
	}
	// Fill in row order with occStart[p] as photo p's cursor. Each cursor
	// ends where the next photo's rows start, so shifting the slab up one
	// photo restores the starts.
	var r int32
	for qi := range subsets {
		for _, p := range subsets[qi].Members {
			k.occRow[k.occStart[p]] = r
			k.occStart[p]++
			r++
		}
	}
	copy(k.occStart[1:], k.occStart[:photos])
	k.occStart[0] = 0
	return k, nil
}

// thresholdRunEntries is the least number of entries in one run of rows
// Threshold hands to a worker, so that a small kernel is thresholded on
// the calling goroutine.
const thresholdRunEntries = 1 << 18

// Threshold returns the τ-sparsification of k (paper §4.3): the kernel of
// k's layout that keeps exactly the entries with sim ≥ tau, in k's order,
// which is the kernel CompileKernel builds over the instance whose
// similarities below tau are rounded down to 0. It also returns k's and the
// result's pair counts, (entries − rows)/2 each: every row holds its self
// entry and each other pair twice. k must be canonical, and tau at most 1,
// so every self entry (sim 1) stays. The result owns every slab, slot
// weights and occurrence index included: a delta overlay grows and rewrites
// each kernel's own copies, and a shared slab would take every batch twice.
//
// Large kernels are thresholded over GOMAXPROCS goroutines, in runs of
// whole rows holding about equal entries; the slabs are the same at every
// GOMAXPROCS.
func (k *Kernel) Threshold(tau float64) (t *Kernel, before, after int) {
	if !k.Canonical() {
		panic("par: Kernel.Threshold on a non-canonical kernel; compact first")
	}
	if !(tau <= 1) {
		panic("par: Kernel.Threshold above 1 would drop the self entries")
	}
	rows := k.Rows()
	workers := runtime.GOMAXPROCS(0)
	runs := k.entryRuns(workers)
	// Both passes keep an entry by adding the comparison's 0 or 1 rather
	// than branching on it: whether a similarity clears τ is close to a
	// coin flip entry by entry, so a branch would mispredict about half the
	// time. The count pass parks each run's kept entries at runKept[ri+1]
	// until the prefix sum turns them into the runs' first output entries.
	runKept := make([]int64, len(runs))
	pool.ForEach(len(runs)-1, workers, func(ri int) {
		n := 0
		for _, s := range k.nbrSim[k.rowStart[runs[ri]]:k.rowStart[runs[ri+1]]] {
			n += b2i(s >= tau)
		}
		runKept[ri+1] = int64(n)
	})
	for ri := 1; ri < len(runKept); ri++ {
		runKept[ri] += runKept[ri-1]
	}
	kept := runKept[len(runKept)-1]
	t = &Kernel{
		photos:   k.photos,
		rowLen:   slices.Clone(k.rowLen),
		rowStart: make([]int64, rows+1),
		nbrIdx:   make([]int32, kept),
		nbrSim:   make([]float64, kept),
		slotWR:   slices.Clone(k.slotWR),
		occStart: slices.Clone(k.occStart),
		occRow:   slices.Clone(k.occRow),
	}
	pool.ForEach(len(runs)-1, workers, func(ri int) {
		k.thresholdRows(t, int(runs[ri]), int(runs[ri+1]), runKept[ri], tau)
	})
	return t, (len(k.nbrIdx) - rows) / 2, (int(kept) - rows) / 2
}

// thresholdRows fills rows [r0, r1) of t from k's, starting at t's entry
// n.
func (k *Kernel) thresholdRows(t *Kernel, r0, r1 int, n int64, tau float64) {
	idx, sim := t.nbrIdx, t.nbrSim
	for r := r0; r < r1; r++ {
		lo, hi := k.rowStart[r], k.rowStart[r+1]
		for e, s := range k.nbrSim[lo : lo+int64(lastKept(k.nbrSim[lo:hi], tau))] {
			idx[n], sim[n] = k.nbrIdx[lo+int64(e)], s
			n += int64(b2i(s >= tau))
		}
		t.rowStart[r+1] = n
	}
}

// lastKept returns one past the last similarity of row at least tau. A
// branch-free fill of the entries at least tau writes every entry and
// advances past the kept ones, so each write lands one past the entries
// kept so far. Stopping here, where every later entry is dropped, keeps
// the last write inside the row's own span, which the next row, perhaps
// another worker's, follows.
func lastKept(row []float64, tau float64) int {
	end := len(row)
	for end > 0 && !(row[end-1] >= tau) {
		end--
	}
	return end
}

// entryRuns cuts k's rows into runs of whole rows for workers to threshold,
// returned as their boundaries: about four runs per worker of equal
// entries, none smaller than thresholdRunEntries.
func (k *Kernel) entryRuns(workers int) []int32 {
	rows := k.Rows()
	entries := k.rowStart[rows]
	target := max(entries/int64(4*workers), thresholdRunEntries)
	runs := []int32{0}
	for next := target; next < entries; next += target {
		// The first row starting at or past the next boundary.
		r := int32(sort.Search(rows, func(r int) bool { return k.rowStart[r] >= next }))
		if r > runs[len(runs)-1] && int(r) < rows {
			runs = append(runs, r)
		}
	}
	return append(runs, int32(rows))
}

// b2i returns 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// neighborCounter is a NeighborLister that reads a row's length without
// listing it, so CompileKernel sizes the row before it copies it.
type neighborCounter interface {
	NeighborLister
	neighborCount(i int) int
}

// tabulates reports whether CompileKernel computes a subset's similarity
// into a k×k buffer first: every similarity but a NeighborLister, whose
// rows it lists, and UniformSim, whose rows hold every member at 1.
func tabulates(s Similarity) bool {
	switch s.(type) {
	case NeighborLister, UniformSim:
		return false
	}
	return true
}

// compileRunCost is the least cost, in member pairs, of one run of rows
// handed to a compile worker, so that a small instance compiles on the
// calling goroutine.
const compileRunCost = 1 << 16

// rowRuns cuts the rows [0, subOff[nSub]) into runs for workers to compile,
// returned as their boundaries (runs[i] .. runs[i+1]). cost(qi, i) is what
// one pass pays for member i of subset qi: i+1 Sim calls in the tabulating
// pass, at most k Sim reads or a row of at most k entries in the others.
// Each run costs about an eighth of a worker's share, and no less than
// compileRunCost, so the largest subset's rows spread over every worker.
func rowRuns(inst *Instance, subOff []int32, workers int, cost func(qi, i int) int64) []int32 {
	var total int64
	for qi := range inst.Subsets {
		for i := range inst.Subsets[qi].Members {
			total += cost(qi, i)
		}
	}
	target := max(total/int64(8*workers), compileRunCost)
	runs := []int32{0}
	var acc int64
	for qi := range inst.Subsets {
		for i := range inst.Subsets[qi].Members {
			if acc >= target {
				runs = append(runs, subOff[qi]+int32(i))
				acc = 0
			}
			acc += cost(qi, i)
		}
	}
	return append(runs, subOff[len(inst.Subsets)])
}

// eachRun calls fn(qi, lo, hi) for the members [lo, hi) of subset qi, over
// every subset's share of every run, fanning the runs out over up to
// workers goroutines.
func eachRun(inst *Instance, subOff []int32, runs []int32, workers int, fn func(qi, lo, hi int)) {
	pool.ForEach(len(runs)-1, workers, func(ri int) {
		lo, hi := runs[ri], runs[ri+1]
		// The subset holding row lo.
		qi := sort.Search(len(inst.Subsets), func(q int) bool { return subOff[q+1] > lo })
		for ; qi < len(inst.Subsets) && subOff[qi] < hi; qi++ {
			fn(qi, int(max(lo, subOff[qi])-subOff[qi]), int(min(hi, subOff[qi+1])-subOff[qi]))
		}
	})
}

// gain computes the marginal gain of adding p against the flat best array,
// without mutating it. It mirrors the jagged reference evaluator term for
// term; see the layout invariants on Kernel for why results are
// bit-identical.
func (k *Kernel) gain(best []float64, p PhotoID) float64 {
	if k.ov != nil {
		return k.ov.gain(k, best, p)
	}
	wr := k.slotWR
	var gain float64
	for _, r := range k.occRow[k.occStart[p]:k.occStart[p+1]] {
		lo, hi := k.rowStart[r], k.rowStart[r+1]
		idx := k.nbrIdx[lo:hi]
		sim := k.nbrSim[lo:hi]
		for t, ix := range idx {
			// Branchless clamp: covered slots contribute wr·(+0), which
			// leaves the accumulator bit-identical to the skipping form,
			// and the data-dependent branch (≈coin-flip on real archives,
			// so a mispredict per entry) disappears from the hot loop.
			gain += wr[ix] * max(sim[t]-best[ix], 0)
		}
	}
	return gain
}

// add is gain with the best-value updates applied: adding p raises the best
// value of every slot whose similarity to p exceeds it.
func (k *Kernel) add(best []float64, p PhotoID) float64 {
	if k.ov != nil {
		return k.ov.add(k, best, p)
	}
	wr := k.slotWR
	var gain float64
	for _, r := range k.occRow[k.occStart[p]:k.occStart[p+1]] {
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
	return gain
}

// Rows returns the number of (subset, member) rows the kernel spans.
func (k *Kernel) Rows() int { return len(k.rowStart) - 1 }

// Entries returns the number of stored similarity entries (including
// overlay-appended ones).
func (k *Kernel) Entries() int {
	n := len(k.nbrIdx)
	if k.ov != nil {
		n += k.ov.extraN
	}
	return n
}

// SizeBytes returns the memory retained by the kernel's arrays, its
// overlay and, once built, its cover index; prepared-instance caches count
// it against their byte bounds.
func (k *Kernel) SizeBytes() int64 {
	n := 4*int64(len(k.nbrIdx)) + 8*int64(len(k.nbrSim)) + 8*int64(len(k.slotWR)) +
		8*int64(len(k.rowStart)) + 4*int64(len(k.occStart)) + 4*int64(len(k.occRow)) +
		4*int64(len(k.rowLen))
	if k.ov != nil {
		n += k.ov.overlayBytes()
	}
	if c := k.cov.Load(); c != nil {
		n += c.sizeBytes()
	}
	return n
}

// kernelCell memoizes the compiled kernel of one finalized layout. It sits
// behind a pointer so Instance values stay copyable: Finalize and WithKernel
// allocate a fresh cell, and ViewInto copies share it, so every budget view
// of a layout runs one kernel.
type kernelCell struct {
	mu sync.Mutex // serializes the first compile against AttachKernel
	k  atomic.Pointer[Kernel]
}

// Kernel returns the compiled gain kernel of the instance's finalized
// layout, compiling it on first use. It is never nil and safe for
// concurrent use; once compiled, the kernel stays with the layout (and its
// ViewInto views) until the next Finalize. The instance must be finalized.
func (in *Instance) Kernel() *Kernel {
	c := in.kc
	if c == nil {
		panic("par: Kernel before Finalize")
	}
	if k := c.k.Load(); k != nil {
		return k
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := c.k.Load(); k != nil {
		return k
	}
	k := CompileKernel(in)
	c.k.Store(k)
	return k
}

// AttachKernel fills the instance's kernel cell with k, a kernel the caller
// already holds — loaded from snapshot slabs, carrying a delta overlay, or
// freshly recompiled by a compaction — so Kernel never compiles one. The
// kernel must match this instance's layout: the same photo count and the
// same member count in every subset. The cell is shared by the whole
// layout, so attaching on any ViewInto view (or on the template) rebinds
// every view of the layout to k. A first Kernel compile running
// concurrently finishes before k is stored, and k replaces its result.
func (in *Instance) AttachKernel(k *Kernel) error {
	if err := in.checkLayout(k); err != nil {
		return err
	}
	in.kc.mu.Lock()
	in.kc.k.Store(k)
	in.kc.mu.Unlock()
	return nil
}

// WithKernel returns the finalized instance of in's layout read through k
// instead of in's own kernel. It shares in's validated state — costs, S0,
// budget, members, relevances and occurrence index — and holds k in a
// kernel cell of its own, so its Kernel returns k without compiling. Its
// Subsets slice is a clone whose Sims are views of k (SetKernelSims); in,
// its subsets and its kernel are left untouched. k must match in's layout
// as AttachKernel requires. A τ-sparsified kernel is read this way: the
// sparsification changes similarities only, so the instance it serves is
// in with another kernel.
func (in *Instance) WithKernel(k *Kernel) (*Instance, error) {
	if err := in.checkLayout(k); err != nil {
		return nil, err
	}
	out := *in
	out.Subsets = slices.Clone(in.Subsets)
	SetKernelSims(out.Subsets, k)
	out.kc = &kernelCell{}
	out.kc.k.Store(k)
	return &out, nil
}

// checkLayout reports whether k can serve in's finalized layout: the same
// photo count and the same member count in every subset.
func (in *Instance) checkLayout(k *Kernel) error {
	if in.occ == nil {
		return fmt.Errorf("par: kernel set before Finalize")
	}
	if k.photos != in.NumPhotos() {
		return fmt.Errorf("par: kernel compiled for %d photos, instance has %d", k.photos, in.NumPhotos())
	}
	if len(k.rowLen) != len(in.Subsets) {
		return fmt.Errorf("par: kernel compiled for %d subsets, instance has %d", len(k.rowLen), len(in.Subsets))
	}
	for qi := range in.Subsets {
		if int(k.rowLen[qi]) != len(in.Subsets[qi].Members) {
			return fmt.Errorf("par: kernel subset %d has %d members, instance has %d",
				qi, k.rowLen[qi], len(in.Subsets[qi].Members))
		}
	}
	return nil
}
