package par

import "fmt"

// KernelSlabs exposes a compiled kernel's flat arrays. The slices are the
// kernel's own backing arrays, not copies; callers must treat them as
// read-only. The field meanings are documented on Kernel. Only the entry
// slabs (RowStart, NbrIdx, NbrSim) are data worth serializing: the others
// are the layout, which KernelFromEntries rebuilds from the instance.
type KernelSlabs struct {
	Photos   int
	RowLen   []int32
	RowStart []int64
	NbrIdx   []int32
	NbrSim   []float64
	SlotWR   []float64
	OccStart []int32
	OccRow   []int32
}

// Slabs returns views of the kernel's arrays. The kernel
// must be canonical: an active mutation overlay keeps state outside these
// slabs, so serializing it would silently drop appended rows — callers
// recompile (compact) first.
func (k *Kernel) Slabs() KernelSlabs {
	if !k.Canonical() {
		panic("par: Kernel.Slabs on a non-canonical kernel; compact first")
	}
	return KernelSlabs{
		Photos:   k.photos,
		RowLen:   k.rowLen,
		RowStart: k.rowStart,
		NbrIdx:   k.nbrIdx,
		NbrSim:   k.nbrSim,
		SlotWR:   k.slotWR,
		OccStart: k.occStart,
		OccRow:   k.occRow,
	}
}

// KernelFromEntries assembles the kernel of inst's subsets from entry
// slabs a canonical kernel of that layout exported (Slabs): rowStart,
// nbrIdx and nbrSim, which become the kernel's own backing arrays without
// a copy, so views into a loaded snapshot region turn into a usable kernel
// in O(entries) validation time. Its layout — row lengths, slot weights
// and occurrence index — is built from inst's subsets by the function
// CompileKernel builds it with, so it cannot disagree with the members,
// and a kernel CompileKernel returns is rebuilt slab for slab. inst need
// not be finalized: a snapshot decode builds the kernel first and points
// the subsets' Sims at it (SetKernelSims) before Finalize reads them. Its
// subsets' Sims are not read.
//
// Because the slabs may come from untrusted bytes (a snapshot file that
// passed its checksums but was written by a different build, or a fuzzer),
// every structural invariant the gain/add hot path relies on is checked
// here: a member outside the instance's photos, monotone row offsets, one
// per row plus one, covering the entry arrays exactly, and equal-length
// parallel entry arrays. The rows are also the instance's similarity, so
// they are held to its invariants: every entry targets a row of its own
// subset, rows are strictly ascending, the self entry is present and
// exactly 1, and every other similarity is in (0,1] (NaN fails).
// Violations return errors; a kernel this constructor accepts can never
// index out of bounds.
func KernelFromEntries(inst *Instance, rowStart []int64, nbrIdx []int32, nbrSim []float64) (*Kernel, error) {
	k, err := kernelLayout(inst.NumPhotos(), inst.Subsets)
	if err != nil {
		return nil, err
	}
	rows := len(k.slotWR)
	if len(rowStart) != rows+1 {
		return nil, fmt.Errorf("par: kernel slabs: rowStart holds %d offsets, want rows+1 = %d",
			len(rowStart), rows+1)
	}
	entries := len(nbrIdx)
	if len(nbrSim) != entries {
		return nil, fmt.Errorf("par: kernel slabs: entry arrays disagree: %d idx, %d sim",
			entries, len(nbrSim))
	}
	if rowStart[0] != 0 || rowStart[rows] != int64(entries) {
		return nil, fmt.Errorf("par: kernel slabs: rowStart spans [%d,%d], want [0,%d]",
			rowStart[0], rowStart[rows], entries)
	}
	for r := 0; r < rows; r++ {
		if rowStart[r] > rowStart[r+1] {
			return nil, fmt.Errorf("par: kernel slabs: rowStart not monotone at row %d", r)
		}
	}
	// The rows are the instance's similarity (SetKernelSims reads them back),
	// so they must satisfy its invariants too.
	var off int32
	for qi, l := range k.rowLen {
		for r := off; r < off+l; r++ {
			self := false
			prev := int32(-1)
			for t := rowStart[r]; t < rowStart[r+1]; t++ {
				ix, sim := nbrIdx[t], nbrSim[t]
				switch {
				case ix < off || ix >= off+l:
					return nil, fmt.Errorf("par: kernel slabs: row %d of subset %d targets row %d outside [%d,%d)", r, qi, ix, off, off+l)
				case ix <= prev:
					return nil, fmt.Errorf("par: kernel slabs: row %d not strictly ascending at entry %d", r, t-rowStart[r])
				case ix == r:
					if sim != 1 {
						return nil, fmt.Errorf("par: kernel slabs: row %d self-similarity %g, want 1", r, sim)
					}
					self = true
				case !(sim > 0 && sim <= 1):
					return nil, fmt.Errorf("par: kernel slabs: row %d similarity %g out of (0,1]", r, sim)
				}
				prev = ix
			}
			if !self {
				return nil, fmt.Errorf("par: kernel slabs: row %d is missing its self entry", r)
			}
		}
		off += l
	}
	k.rowStart, k.nbrIdx, k.nbrSim = rowStart, nbrIdx, nbrSim
	return k, nil
}
