package par

import "sort"

// DeltaSim overlays incremental membership changes onto an existing
// Similarity: members can be masked (a removed photo's similarities all
// become 0, so it can never again cover anyone) and new members can be
// appended with explicit similarity rows. It is the similarity-level mirror
// of the kernel's mutation overlay, kept as the cold reference: the
// engine's MergeDelta wraps a subset's similarity in one of these, and a
// kernel compiled from it holds exactly the entries the live, overlaid
// kernel holds. The live path itself never builds one; its subsets read
// the overlaid kernel directly (SetKernelSims).
//
// The diagonal stays 1 even for masked members: a removed photo remains a
// member slot of the subset (photo IDs are dense and stable), and the
// self-similarity convention of Similarity — and the snapshot codec's CSR
// validation — requires Sim(i, i) == 1.
type DeltaSim struct {
	inner  Similarity
	k0     int    // inner.Len(), the pre-delta member count
	masked []bool // by member index; true → all off-diagonal sims are 0
	// rows[m-k0] holds appended member m's similarities to earlier members
	// (base or previously appended), sorted ascending by index, self excluded.
	rows [][]Neighbor
}

// NewDeltaSim wraps inner with an initially empty overlay.
func NewDeltaSim(inner Similarity) *DeltaSim {
	return &DeltaSim{inner: inner, k0: inner.Len(), masked: make([]bool, inner.Len())}
}

// Len returns the current member count (base plus appended).
func (d *DeltaSim) Len() int { return d.k0 + len(d.rows) }

// MaskMember zeroes every off-diagonal similarity of member i.
func (d *DeltaSim) MaskMember(i int) { d.masked[i] = true }

// AppendMember adds one member whose similarities to earlier members are
// given by neighbors (ascending index, self excluded, sims in (0,1]).
// The slice is retained.
func (d *DeltaSim) AppendMember(neighbors []Neighbor) {
	m := d.Len()
	last := -1
	for _, nb := range neighbors {
		if nb.Index <= last || nb.Index >= m {
			panic("par: DeltaSim.AppendMember neighbors must be earlier members in ascending order")
		}
		if nb.Sim <= 0 || nb.Sim > 1 {
			panic("par: similarity out of (0,1]")
		}
		last = nb.Index
	}
	d.rows = append(d.rows, neighbors)
	d.masked = append(d.masked, false)
}

// Sim returns the overlaid similarity of members i and j.
func (d *DeltaSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	if d.masked[i] || d.masked[j] {
		return 0
	}
	if i < d.k0 && j < d.k0 {
		return d.inner.Sim(i, j)
	}
	hi, lo := i, j
	if hi < lo {
		hi, lo = lo, hi
	}
	row := d.rows[hi-d.k0]
	k := sort.Search(len(row), func(x int) bool { return row[x].Index >= lo })
	if k < len(row) && row[k].Index == lo {
		return row[k].Sim
	}
	return 0
}
