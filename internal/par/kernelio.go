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
// parallel entry arrays, one slot weight per row, per-subset lengths summing
// to the row count, and an occurrence index covering occRow exactly with
// in-range rows. The rows are also the instance's similarity, so they are
// held to its invariants: every entry targets a row of its own subset, rows
// are strictly ascending, the self entry is present and exactly 1, and
// every other similarity is in (0,1] (NaN fails). Violations return errors;
// a kernel this constructor accepts can never index out of bounds.
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
	// The rows are the instance's similarity (SetKernelSims reads them back),
	// so they must satisfy its invariants too.
	var off int32
	for qi, l := range s.RowLen {
		for r := off; r < off+l; r++ {
			self := false
			prev := int32(-1)
			for t := s.RowStart[r]; t < s.RowStart[r+1]; t++ {
				ix, sim := s.NbrIdx[t], s.NbrSim[t]
				switch {
				case ix < off || ix >= off+l:
					return nil, fmt.Errorf("par: kernel slabs: row %d of subset %d targets row %d outside [%d,%d)", r, qi, ix, off, off+l)
				case ix <= prev:
					return nil, fmt.Errorf("par: kernel slabs: row %d not strictly ascending at entry %d", r, t-s.RowStart[r])
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
