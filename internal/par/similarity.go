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
// wire decode. The rows are compressed sparse rows: row i is entries
// start[i] to start[i+1] of the parallel slabs idx (the neighbour's member
// index) and sim (the similarity), ascending by index and holding i itself
// with similarity 1. Point lookups binary-search a row, O(log deg), and
// CompileKernel copies each row span into the kernel's slabs as it is.
type SparseSim struct {
	start []int
	idx   []int32
	sim   []float64
}

// NewSparseSim returns a SparseSim over n members where every member's only
// neighbour is itself.
func NewSparseSim(n int) *SparseSim {
	if n > math.MaxInt32 {
		panic("par: SparseSim over more than MaxInt32 members")
	}
	s := &SparseSim{start: make([]int, n+1), idx: make([]int32, n), sim: make([]float64, n)}
	for i := range n {
		s.start[i+1], s.idx[i], s.sim[i] = i+1, int32(i), 1
	}
	return s
}

// Len returns the number of members.
func (s *SparseSim) Len() int { return len(s.start) - 1 }

// find returns the position of j in row i's span of the slabs, or where it
// would be inserted, and whether it is there.
func (s *SparseSim) find(i, j int) (int, bool) {
	a := s.start[i]
	t, ok := slices.BinarySearch(s.idx[a:s.start[i+1]], int32(j))
	return a + t, ok
}

// Sim returns the similarity of members i and j (0 if not neighbours) by
// binary search over the sorted row.
func (s *SparseSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	if t, ok := s.find(i, j); ok {
		return s.sim[t]
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
	a, b := s.start[i], s.start[i+1]
	for t := a; t < b; t++ {
		dst = append(dst, Neighbor{Index: int(s.idx[t]), Sim: s.sim[t]})
	}
	return dst
}

func (s *SparseSim) neighborCount(i int) int { return s.start[i+1] - s.start[i] }

// Add records similarity sim for the unordered pair {i, j} in both rows,
// keeping the rows sorted. Each insert shifts every entry after it, so an
// Add costs O(entries): build through SparseSimBuilder when the pairs are
// known up front. Re-adding a pair panics like the other construction
// errors: a duplicate entry would silently double-count the neighbour in
// every gain computation.
func (s *SparseSim) Add(i, j int, sim float64) {
	if i == j {
		panic("par: SparseSim.Add on diagonal")
	}
	if sim <= 0 || sim > 1 {
		panic("par: similarity out of (0,1]")
	}
	if i < 0 || j < 0 || i >= s.Len() || j >= s.Len() {
		panic("par: SparseSim.Add index out of range")
	}
	s.insert(i, j, sim)
	s.insert(j, i, sim)
}

// insert places j with similarity sim into row i at its sorted position.
func (s *SparseSim) insert(i, j int, sim float64) {
	t, ok := s.find(i, j)
	if ok {
		panic("par: SparseSim.Add of duplicate pair")
	}
	s.idx = slices.Insert(s.idx, t, int32(j))
	s.sim = slices.Insert(s.sim, t, sim)
	for r := i + 1; r < len(s.start); r++ {
		s.start[r]++
	}
}

// SparseSimBuilder constructs a SparseSim from pairs known up front.
// SparseSim.Add shifts the slabs per insert, which costs O(entries) per
// pair; the builder records the pairs and lays all rows out at Build time,
// sorting a row only if the pairs did not arrive in ascending order, so
// bulk construction allocates only the SparseSim's three slabs. Use Add
// for incremental post-Build maintenance; use the builder whenever all
// pairs are known up front.
type SparseSimBuilder struct {
	n     int
	pairs []simPair
}

// simPair is one similarity triple over member indices, as given: the
// compact form the builder and the split wire decoder hold pairs in.
type simPair struct {
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
	b.pairs = append(b.pairs, simPair{int32(i), int32(j), sim})
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
func (b *SparseSimBuilder) TryBuild() (*SparseSim, error) { return b.build(nil) }

// build is TryBuild with a pair given twice named by repeat (buildSparse).
func (b *SparseSimBuilder) build(repeat func(i, j int) error) (*SparseSim, error) {
	s, err := buildSparse(b.n, b.pairs, repeat)
	b.pairs = nil
	return s, err
}

// buildSparse lays out the SparseSim over n members of pairs, which must be
// off-diagonal, in range and of similarity in (0, 1]; it does not keep
// pairs. A pair given twice, in either orientation, is the error repeat
// returns for the first pair, in input order, that repeats an earlier one
// (ErrDuplicatePair when repeat is nil).
//
// Row r is [lower neighbours, r, higher neighbours], each part in pair
// order, so pairs in ascending order, as sparsification and WriteJSON
// produce them, fill every row already sorted. The rows' starts double as
// fill cursors: three passes (lower neighbours, self entries, higher
// neighbours) advance start[r] to row r's end, and one shift restores it.
func buildSparse(n int, pairs []simPair, repeat func(i, j int) error) (*SparseSim, error) {
	start := make([]int, n+1)
	for _, p := range pairs {
		start[p.i+1]++
		start[p.j+1]++
	}
	for r := range n {
		start[r+1] += start[r] + 1
	}
	s := &SparseSim{start: start, idx: make([]int32, start[n]), sim: make([]float64, start[n])}
	for _, p := range pairs {
		lo, hi := min(p.i, p.j), max(p.i, p.j)
		t := start[hi]
		s.idx[t], s.sim[t] = lo, p.sim
		start[hi]++
	}
	for r := range n {
		t := start[r]
		s.idx[t], s.sim[t] = int32(r), 1
		start[r]++
	}
	for _, p := range pairs {
		lo, hi := min(p.i, p.j), max(p.i, p.j)
		t := start[lo]
		s.idx[t], s.sim[t] = hi, p.sim
		start[lo]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	for r := range n {
		row := csrRow{s.idx[start[r]:start[r+1]], s.sim[start[r]:start[r+1]]}
		if ascending(row.idx) {
			continue
		}
		sort.Sort(row)
		if !ascending(row.idx) {
			if repeat == nil {
				return nil, ErrDuplicatePair
			}
			return nil, firstRepeat(pairs, repeat)
		}
	}
	return s, nil
}

// ascending reports whether idx is strictly ascending: sorted, with no
// index twice.
func ascending(idx []int32) bool {
	for t := 1; t < len(idx); t++ {
		if idx[t] <= idx[t-1] {
			return false
		}
	}
	return true
}

// firstRepeat returns repeat's error for the first pair, in input order,
// that repeats an earlier one in either orientation; pairs must hold one.
func firstRepeat(pairs []simPair, repeat func(i, j int) error) error {
	seen := make(map[[2]int32]bool, len(pairs))
	for _, p := range pairs {
		key := [2]int32{min(p.i, p.j), max(p.i, p.j)}
		if seen[key] {
			return repeat(int(p.i), int(p.j))
		}
		seen[key] = true
	}
	panic("par: firstRepeat without a repeated pair")
}

// csrRow sorts one SparseSim row's spans of the two slabs together.
type csrRow struct {
	idx []int32
	sim []float64
}

func (r csrRow) Len() int           { return len(r.idx) }
func (r csrRow) Less(a, b int) bool { return r.idx[a] < r.idx[b] }
func (r csrRow) Swap(a, b int) {
	r.idx[a], r.idx[b] = r.idx[b], r.idx[a]
	r.sim[a], r.sim[b] = r.sim[b], r.sim[a]
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
