package par

import "fmt"

// KernelSlabs exposes a compiled kernel's flat arrays for serialization.
// The slices are the kernel's own backing arrays, not copies; callers must
// treat them as read-only. The field meanings are documented on Kernel.
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

// Slabs returns views of the kernel's arrays for serialization. The kernel
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

// KernelFromSlabs reassembles a Kernel from previously exported slabs
// without copying them — the slices become the kernel's backing arrays, so
// views into a loaded snapshot region turn into a usable kernel in O(rows)
// validation time and zero allocation beyond the struct.
//
// Because the slabs may come from untrusted bytes (a snapshot file that
// passed its checksums but was written by a different build, or a fuzzer),
// every structural invariant the gain/add hot path relies on is checked
// here: monotone row offsets covering the entry arrays exactly, equal-length
// parallel entry arrays, one slot weight per row, neighbour rows within
// range, per-subset lengths summing to the row count, and an occurrence
// index covering occRow exactly with in-range rows. Violations return typed errors; a kernel this
// constructor accepts can never index out of bounds.
func KernelFromSlabs(s KernelSlabs) (*Kernel, error) {
	if s.Photos < 0 {
		return nil, fmt.Errorf("par: kernel slabs: negative photo count %d", s.Photos)
	}
	rows := len(s.RowStart) - 1
	if rows < 0 {
		return nil, fmt.Errorf("par: kernel slabs: rowStart must hold at least one offset")
	}
	entries := len(s.NbrIdx)
	if len(s.NbrSim) != entries {
		return nil, fmt.Errorf("par: kernel slabs: entry arrays disagree: %d idx, %d sim",
			entries, len(s.NbrSim))
	}
	if len(s.SlotWR) != rows {
		return nil, fmt.Errorf("par: kernel slabs: %d slot weights, want one per row = %d",
			len(s.SlotWR), rows)
	}
	if s.RowStart[0] != 0 || s.RowStart[rows] != int64(entries) {
		return nil, fmt.Errorf("par: kernel slabs: rowStart spans [%d,%d], want [0,%d]",
			s.RowStart[0], s.RowStart[rows], entries)
	}
	for r := 0; r < rows; r++ {
		if s.RowStart[r] > s.RowStart[r+1] {
			return nil, fmt.Errorf("par: kernel slabs: rowStart not monotone at row %d", r)
		}
	}
	for t, ix := range s.NbrIdx {
		if ix < 0 || int(ix) >= rows {
			return nil, fmt.Errorf("par: kernel slabs: entry %d targets row %d of %d", t, ix, rows)
		}
	}
	var sum int64
	for qi, l := range s.RowLen {
		if l < 0 {
			return nil, fmt.Errorf("par: kernel slabs: subset %d has negative length %d", qi, l)
		}
		sum += int64(l)
	}
	if sum != int64(rows) {
		return nil, fmt.Errorf("par: kernel slabs: subset lengths sum to %d, want %d rows", sum, rows)
	}
	if len(s.OccStart) != s.Photos+1 {
		return nil, fmt.Errorf("par: kernel slabs: occStart holds %d offsets, want photos+1 = %d",
			len(s.OccStart), s.Photos+1)
	}
	if s.Photos > 0 {
		if s.OccStart[0] != 0 || int(s.OccStart[s.Photos]) != len(s.OccRow) {
			return nil, fmt.Errorf("par: kernel slabs: occStart spans [%d,%d], want [0,%d]",
				s.OccStart[0], s.OccStart[s.Photos], len(s.OccRow))
		}
		for p := 0; p < s.Photos; p++ {
			if s.OccStart[p] > s.OccStart[p+1] {
				return nil, fmt.Errorf("par: kernel slabs: occStart not monotone at photo %d", p)
			}
		}
	} else if len(s.OccRow) != 0 {
		return nil, fmt.Errorf("par: kernel slabs: %d occurrence rows with zero photos", len(s.OccRow))
	}
	for t, r := range s.OccRow {
		if r < 0 || int(r) >= rows {
			return nil, fmt.Errorf("par: kernel slabs: occurrence %d targets row %d of %d", t, r, rows)
		}
	}
	return &Kernel{
		photos:   s.Photos,
		rowLen:   s.RowLen,
		rowStart: s.RowStart,
		nbrIdx:   s.NbrIdx,
		nbrSim:   s.NbrSim,
		slotWR:   s.SlotWR,
		occStart: s.OccStart,
		occRow:   s.OccRow,
	}, nil
}
