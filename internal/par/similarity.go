package par

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// Similarity is the contextualized similarity function of a single
// pre-defined subset. Indices are positions within the subset's Members
// slice, not global photo IDs: Sim(i, j) is the similarity between the i-th
// and j-th members of the subset in this subset's context.
//
// Implementations must be symmetric, return values in [0,1], and return 1
// for i == j. CompileKernel reads Sim(i, j) for i < j only (and the
// diagonal), and puts that value in both orientations of the pair, so an
// implementation whose two orientations differ, even in the last bit, is
// compiled as if Sim(j, i) returned Sim(i, j).
type Similarity interface {
	// Sim returns the contextual similarity of members i and j.
	Sim(i, j int) float64
	// Len returns the number of members the similarity is defined over.
	Len() int
}

// NeighborLister is an optional extension of Similarity. Implementations
// list, for each member, the members with strictly positive similarity to
// it. Solvers use it to restrict marginal-gain computations to actual
// neighbours, which is what makes τ-sparsification pay off.
//
// AppendNeighbors(dst, i) appends member i's row to dst and returns the
// extended slice, so a row assembled on the fly (a kernel view's compiled
// span plus its overlay entries) costs no allocation per call. The row must
// include i itself (with similarity 1), list members in ascending index
// order, and be consistent with Sim: every pair absent from it has Sim == 0.
type NeighborLister interface {
	Similarity
	AppendNeighbors(dst []Neighbor, i int) []Neighbor
}

// Neighbor is one entry of a sparse similarity row.
type Neighbor struct {
	Index int     // member index within the subset
	Sim   float64 // similarity, in (0, 1]
}

// DenseSim is a dense symmetric similarity matrix over k members. The zero
// value is unusable; construct with NewDenseSim. Only the upper triangle is
// stored.
type DenseSim struct {
	n    int
	vals []float64 // upper triangle, row-major, excluding diagonal
}

// NewDenseSim returns a DenseSim over n members with all off-diagonal
// similarities 0.
func NewDenseSim(n int) *DenseSim {
	if n < 0 {
		panic("par: NewDenseSim with negative size")
	}
	return &DenseSim{n: n, vals: make([]float64, n*(n-1)/2)}
}

func (d *DenseSim) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Offset of row i in the packed upper triangle, plus column offset.
	return i*(2*d.n-i-1)/2 + (j - i - 1)
}

// Len returns the number of members.
func (d *DenseSim) Len() int { return d.n }

// Sim returns the stored similarity (1 on the diagonal).
func (d *DenseSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	return d.vals[d.idx(i, j)]
}

// Set stores the similarity for the (unordered) pair {i, j}. Setting the
// diagonal or a value outside [0,1] panics: both indicate a bug in the
// caller's construction code, not a recoverable condition.
func (d *DenseSim) Set(i, j int, sim float64) {
	if i == j {
		panic("par: DenseSim.Set on diagonal")
	}
	if sim < 0 || sim > 1 {
		panic("par: similarity out of [0,1]")
	}
	d.vals[d.idx(i, j)] = sim
}

// SparseSim stores, for each member, only the neighbours with positive
// similarity. It is the natural representation after τ-sparsification and
// wire decode. Rows are kept sorted by neighbour index, so point lookups
// cost O(log deg) instead of a linear scan.
type SparseSim struct {
	rows [][]Neighbor
}

// NewSparseSim returns a SparseSim over n members where every member's only
// neighbour is itself.
func NewSparseSim(n int) *SparseSim {
	rows := make([][]Neighbor, n)
	for i := range rows {
		rows[i] = []Neighbor{{Index: i, Sim: 1}}
	}
	return &SparseSim{rows: rows}
}

// Len returns the number of members.
func (s *SparseSim) Len() int { return len(s.rows) }

// Sim returns the similarity of members i and j (0 if not neighbours) by
// binary search over the sorted row.
func (s *SparseSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	row := s.rows[i]
	k := sort.Search(len(row), func(x int) bool { return row[x].Index >= j })
	if k < len(row) && row[k].Index == j {
		return row[k].Sim
	}
	return 0
}

// Contains reports whether the pair {i, j} has a stored positive similarity
// (true for i == j). Loaders use it to reject duplicate pairs in untrusted
// input with an error instead of Add's panic.
func (s *SparseSim) Contains(i, j int) bool {
	return s.Sim(i, j) != 0
}

// AppendNeighbors appends the positive-similarity row of member i, sorted
// by neighbour index, to dst.
func (s *SparseSim) AppendNeighbors(dst []Neighbor, i int) []Neighbor {
	return append(dst, s.rows[i]...)
}

func (s *SparseSim) neighborCount(i int) int { return len(s.rows[i]) }

// Add records similarity sim for the unordered pair {i, j} in both rows,
// keeping the rows sorted. Re-adding a pair panics like the other
// construction errors: a duplicate entry would silently double-count the
// neighbour in every gain computation.
func (s *SparseSim) Add(i, j int, sim float64) {
	if i == j {
		panic("par: SparseSim.Add on diagonal")
	}
	if sim <= 0 || sim > 1 {
		panic("par: similarity out of (0,1]")
	}
	s.insert(i, j, sim)
	s.insert(j, i, sim)
}

// insert places {Index: j, Sim: sim} into row i at its sorted position.
func (s *SparseSim) insert(i, j int, sim float64) {
	row := s.rows[i]
	k := sort.Search(len(row), func(x int) bool { return row[x].Index >= j })
	if k < len(row) && row[k].Index == j {
		panic("par: SparseSim.Add of duplicate pair")
	}
	row = append(row, Neighbor{})
	copy(row[k+1:], row[k:])
	row[k] = Neighbor{Index: j, Sim: sim}
	s.rows[i] = row
}

// SparseSimBuilder constructs a SparseSim from pairs known up front.
// SparseSim.Add keeps rows sorted per insert, which costs O(deg) copies per
// pair — O(deg²) per row — and dominates exact sparsification of dense
// subsets; the builder records the pairs and lays all rows out at Build
// time in one array, sorting each row at most once, so bulk construction is
// O(deg log deg) per row and a handful of allocations per subset. Use Add
// for incremental post-Build maintenance; use the builder whenever all pairs
// are known up front.
type SparseSimBuilder struct {
	n     int
	pairs []builderPair
}

// builderPair is one recorded pair, normalized so that i < j.
type builderPair struct {
	i, j int32
	sim  float64
}

// NewSparseSimBuilder returns a builder over n members, each seeded with its
// self-neighbour (similarity 1), matching NewSparseSim.
func NewSparseSimBuilder(n int) *SparseSimBuilder {
	if n > math.MaxInt32 {
		panic("par: SparseSimBuilder over more than MaxInt32 members")
	}
	return &SparseSimBuilder{n: n}
}

// Grow reserves room for n more pairs, for callers that know the count.
func (b *SparseSimBuilder) Grow(n int) { b.pairs = slices.Grow(b.pairs, n) }

// Add records similarity sim for the unordered pair {i, j}. Argument
// validation matches SparseSim.Add; duplicate detection is deferred to
// Build, where the sorted rows make it a linear scan.
func (b *SparseSimBuilder) Add(i, j int, sim float64) {
	if i == j {
		panic("par: SparseSimBuilder.Add on diagonal")
	}
	if sim <= 0 || sim > 1 {
		panic("par: similarity out of (0,1]")
	}
	if i < 0 || j < 0 || i >= b.n || j >= b.n {
		panic("par: SparseSimBuilder.Add index out of range")
	}
	b.pairs = append(b.pairs, builderPair{int32(min(i, j)), int32(max(i, j)), sim})
}

// Build lays the rows out, sorted by neighbour index, and hands them over
// to a SparseSim; the builder must not be used afterwards. A pair added
// twice panics here with SparseSim.Add's duplicate message: a duplicate
// entry would silently double-count the neighbour in every gain
// computation.
func (b *SparseSimBuilder) Build() *SparseSim {
	s, err := b.TryBuild()
	if err != nil {
		panic(err.Error())
	}
	return s
}

// ErrDuplicatePair is TryBuild's error for a pair added twice.
var ErrDuplicatePair = errors.New("par: SparseSim.Add of duplicate pair")

// TryBuild is Build for pairs from untrusted input: a pair added twice, in
// either orientation, returns ErrDuplicatePair instead of panicking.
func (b *SparseSimBuilder) TryBuild() (*SparseSim, error) {
	// Row i is [lower neighbours, self, higher neighbours] in one shared
	// array. Pairs added in ascending order, as sparsification and
	// WriteJSON produce them, fill every row already sorted.
	lo := make([]int, b.n) // row i's lower-neighbour count, then fill cursor
	hi := make([]int, b.n) // row i's higher-neighbour count, then fill cursor
	for _, p := range b.pairs {
		lo[p.j]++
		hi[p.i]++
	}
	backing := make([]Neighbor, b.n+2*len(b.pairs))
	rows := make([][]Neighbor, b.n)
	off := 0
	for i := range rows {
		n := lo[i] + 1 + hi[i]
		// The capped capacity makes a later Add reallocate the row rather
		// than overwrite the next one.
		rows[i] = backing[off : off+n : off+n]
		rows[i][lo[i]] = Neighbor{Index: i, Sim: 1}
		lo[i], hi[i] = off, off+lo[i]+1
		off += n
	}
	for _, p := range b.pairs {
		backing[hi[p.i]] = Neighbor{Index: int(p.j), Sim: p.sim}
		hi[p.i]++
		backing[lo[p.j]] = Neighbor{Index: int(p.i), Sim: p.sim}
		lo[p.j]++
	}
	b.pairs = nil
	byIndex := func(x, y Neighbor) int { return x.Index - y.Index }
	for _, row := range rows {
		if !slices.IsSortedFunc(row, byIndex) {
			slices.SortFunc(row, byIndex)
		}
		for t := 1; t < len(row); t++ {
			if row[t].Index == row[t-1].Index {
				return nil, ErrDuplicatePair
			}
		}
	}
	return &SparseSim{rows: rows}, nil
}

// FuncSim adapts an arbitrary function to the Similarity interface. It is
// convenient in tests and for instances whose similarity is computed on the
// fly (for example from embeddings).
type FuncSim struct {
	N int
	F func(i, j int) float64
}

// Len returns the number of members.
func (f FuncSim) Len() int { return f.N }

// Sim evaluates the wrapped function, short-circuiting the diagonal.
func (f FuncSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	return f.F(i, j)
}

// UniformSim is the degenerate similarity in which every pair of members of
// the subset has similarity 1. It is the surrogate used by the Greedy-NR
// baseline and by the Maximum Coverage reduction of Theorem 3.4.
type UniformSim struct{ N int }

// Len returns the number of members.
func (u UniformSim) Len() int { return u.N }

// Sim returns 1 for every pair.
func (u UniformSim) Sim(i, j int) float64 { return 1 }

// IdentitySim is the degenerate similarity in which distinct members have
// similarity 0: a photo only ever covers itself. Together with UniformSim it
// brackets every real similarity structure, which several property tests use.
type IdentitySim struct{ N int }

// Len returns the number of members.
func (d IdentitySim) Len() int { return d.N }

// Sim returns 1 on the diagonal and 0 elsewhere.
func (d IdentitySim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	return 0
}

// AppendNeighbors appends the single self-neighbour of i to dst.
func (d IdentitySim) AppendNeighbors(dst []Neighbor, i int) []Neighbor {
	return append(dst, Neighbor{Index: i, Sim: 1})
}
