package par

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestSelectTop holds the cover build's partial selection to a full sort:
// for every prefix length n, the first n entries after selectTop are the n
// largest similarities, ties and all.
func TestSelectTop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		size := 2 + rng.Intn(70)
		levels := 1 + rng.Intn(size) // few levels force ties
		a := make([]coverEnt, size)
		for i := range a {
			a[i] = coverEnt{sim: float64(1+rng.Intn(levels)) / float64(levels), row: int32(i)}
		}
		want := slices.Clone(a)
		slices.SortFunc(want, func(x, y coverEnt) int { return cmp.Compare(y.sim, x.sim) })
		for n := 1; n < size; n++ {
			b := slices.Clone(a)
			selectTop(b, n)
			top := make([]float64, n)
			for i := range top {
				top[i] = b[i].sim
			}
			slices.Sort(top)
			slices.Reverse(top)
			for i := range top {
				if top[i] != want[i].sim {
					t.Fatalf("trial %d n=%d: selected %v, want the top of %v", trial, n, top, want)
				}
			}
			rows := map[int32]bool{}
			for _, e := range b {
				rows[e.row] = true
			}
			if len(rows) != size {
				t.Fatalf("trial %d n=%d: selection lost entries", trial, n)
			}
		}
	}
}

// TestCoverListsDescending pins the index layout on a kernel with rows
// longer than CoverK: each base row's list holds its min(len, CoverK)
// highest similarities in descending order, each list entry is an entry of
// the row, and every row maps to the photo occupying it.
func TestCoverListsDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := Random(rng, RandomConfig{Photos: 120, Subsets: 6, MaxSubset: 80, SimDensity: 0.8})
	k := CompileKernel(inst)
	c := k.Covers()
	if c == nil {
		t.Fatal("symmetric kernel has no cover index")
	}
	long := 0
	for r := 0; r < k.Rows(); r++ {
		span := k.nbrSim[k.rowStart[r]:k.rowStart[r+1]]
		if len(span) > CoverK {
			long++
		}
		want := slices.Clone(span)
		slices.Sort(want)
		slices.Reverse(want)
		want = want[:min(len(want), CoverK)]
		got := c.sim[c.start[r]:c.start[r+1]]
		if !slices.Equal(got, want) {
			t.Fatalf("row %d: list %v, want %v", r, got, want)
		}
		for t2, i := range c.row[c.start[r]:c.start[r+1]] {
			at := slices.Index(k.nbrIdx[k.rowStart[r]:k.rowStart[r+1]], i)
			if at < 0 || span[at] != got[t2] {
				t.Fatalf("row %d: list entry %d (row %d) is not an entry of the row", r, t2, i)
			}
		}
	}
	if long == 0 {
		t.Fatal("no row longer than CoverK: the truncated lists went untested")
	}
	for p := range inst.NumPhotos() {
		for _, oc := range inst.Occurrences(PhotoID(p)) {
			if got := c.photo[k.RowOf(oc.Subset, oc.Index)]; got != int32(p) {
				t.Fatalf("photo %d subset %d: row maps to photo %d", p, oc.Subset, got)
			}
		}
	}
}

// listedSim is a test-only NeighborLister that lists row i as Sim(mi, i)
// for every member mi, the orientation in which adding i covers mi. The
// compile copies a listed row as it is, so an asymmetric similarity keeps
// its two directions apart in the kernel; a tabulated one would not, since
// the compile reads each pair once.
type listedSim struct{ FuncSim }

func (l listedSim) AppendNeighbors(dst []Neighbor, i int) []Neighbor {
	for mi := range l.N {
		if s := l.Sim(mi, i); s > 0 {
			dst = append(dst, Neighbor{Index: mi, Sim: s})
		}
	}
	return dst
}

// TestCoversAsymmetricKernel: a kernel whose two directions of a pair
// disagree — in the last bit, or by one direction being 0 so an entry has
// no mirror at all — gets no cover index, and AllGainsInto falls back to
// the pull pass with Gain's bits.
func TestCoversAsymmetricKernel(t *testing.T) {
	for name, skew := range map[string]func(s float64) float64{
		"last bit":  func(s float64) float64 { return math.Nextafter(s, 0) },
		"one-sided": func(float64) float64 { return 0 },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			base := Random(rng, RandomConfig{Photos: 30, Subsets: 6, SimDensity: 0.6})
			inst := withSims(t, base, func(k int, dense Similarity) Similarity {
				return listedSim{FuncSim{N: k, F: func(i, j int) float64 {
					s := dense.Sim(i, j)
					if i < j && s > 0 {
						return skew(s)
					}
					return s
				}}}
			})
			if inst.Kernel().Covers() != nil {
				t.Fatal("asymmetric kernel built a cover index")
			}
			if n, built := inst.Kernel().CoverBytes(); !built || n != 0 {
				t.Fatalf("failed build charges %d bytes (built %v), want 0 after the attempt", n, built)
			}
			e := NewEvaluator(inst)
			e.Add(1)
			e.Add(7)
			sameAllGains(t, e, name)
		})
	}
}

// TestCoversRejectsMalformedKernels: a kernel whose rows are not strictly
// ascending by target, or whose photos do not each occupy their own rows,
// would hand photos their terms out of Gain's order or to the wrong photo.
// It gets no cover index, even when its entries still mirror each other,
// and AllGainsInto keeps Gain's bits.
func TestCoversRejectsMalformedKernels(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(t *testing.T, k *Kernel, members []PhotoID) *Kernel
	}{
		{"unsorted row", func(t *testing.T, k *Kernel, _ []PhotoID) *Kernel {
			lo := k.rowStart[0]
			k.nbrIdx[lo], k.nbrIdx[lo+1] = k.nbrIdx[lo+1], k.nbrIdx[lo]
			k.nbrSim[lo], k.nbrSim[lo+1] = k.nbrSim[lo+1], k.nbrSim[lo]
			return k
		}},
		{"shared row", func(t *testing.T, k *Kernel, members []PhotoID) *Kernel {
			// The second member also occupies the first member's row, every
			// row keeping an occupant.
			s := k.Slabs()
			p0, p1 := members[0], members[1]
			occStart := slices.Clone(s.OccStart)
			var occRow []int32
			for p := range s.Photos {
				occRow = append(occRow, s.OccRow[s.OccStart[p]:s.OccStart[p+1]]...)
				if PhotoID(p) == p1 {
					occRow = append(occRow, s.OccRow[s.OccStart[p0]])
				}
				occStart[p+1] = int32(len(occRow))
			}
			s.OccStart, s.OccRow = occStart, occRow
			mangled, err := KernelFromSlabs(s)
			if err != nil {
				t.Fatal(err)
			}
			return mangled
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			inst := Random(rng, RandomConfig{Photos: 6, Subsets: 1, MaxSubset: 6, SimDensity: 1})
			for len(inst.Subsets[0].Members) < 4 {
				inst = Random(rng, RandomConfig{Photos: 6, Subsets: 1, MaxSubset: 6, SimDensity: 1})
			}
			k := tc.mangle(t, inst.Kernel(), inst.Subsets[0].Members)
			if err := inst.AttachKernel(k); err != nil {
				t.Fatal(err)
			}
			if k.Covers() != nil {
				t.Fatal("malformed kernel built a cover index")
			}
			e := NewEvaluator(inst)
			e.Add(inst.Subsets[0].Members[2])
			sameAllGains(t, e, tc.name)
		})
	}
}

// TestCoversRejectCrossSubsetEntries: an entry may only target a row of its
// own subset — the sweep hands out each subset's terms in that subset's
// turn — so a kernel whose rows pair across subsets, however symmetric,
// gets no cover index. KernelFromSlabs refuses such slabs outright, so the
// kernel is assembled directly to reach the cover index's own check.
func TestCoversRejectCrossSubsetEntries(t *testing.T) {
	s := KernelSlabs{
		Photos:   2,
		RowLen:   []int32{1, 1},
		RowStart: []int64{0, 2, 4},
		NbrIdx:   []int32{0, 1, 0, 1},
		NbrSim:   []float64{1, 0.5, 0.5, 1},
		SlotWR:   []float64{1, 1},
		OccStart: []int32{0, 1, 2},
		OccRow:   []int32{0, 1},
	}
	if _, err := KernelFromSlabs(s); err == nil {
		t.Fatal("KernelFromSlabs accepted cross-subset entries")
	}
	k := &Kernel{
		photos: s.Photos, rowLen: s.RowLen, rowStart: s.RowStart, nbrIdx: s.NbrIdx,
		nbrSim: s.NbrSim, slotWR: s.SlotWR, occStart: s.OccStart, occRow: s.OccRow,
	}
	if k.Covers() != nil {
		t.Fatal("a kernel with cross-subset entries built a cover index")
	}
}

// TestCoversBuildOnceConcurrently: concurrent first Covers calls share one
// build, and every caller sees the same index.
func TestCoversBuildOnceConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := CompileKernel(Random(rng, RandomConfig{Photos: 200, Subsets: 30, MaxSubset: 40}))
	const callers = 4
	got := make([]*CoverIndex, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = k.Covers()
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("caller %d got index %p, caller 0 %p", i, c, got[0])
		}
	}
}

// sameAllGains fails t unless AllGainsInto agrees with Gain, bit for bit,
// for every photo of e's instance.
func sameAllGains(t *testing.T, e *Evaluator, step string) {
	t.Helper()
	dst := make([]float64, e.inst.NumPhotos())
	e.AllGainsInto(dst)
	for p := range dst {
		if want := e.gainOf(PhotoID(p)); math.Float64bits(dst[p]) != math.Float64bits(want) {
			t.Fatalf("%s: swept gain of photo %d %v (%#x), pulled %v (%#x)",
				step, p, dst[p], math.Float64bits(dst[p]), want, math.Float64bits(want))
		}
	}
}

// FuzzCoverSweep is the cover sweep's differential check. A random
// finalized instance (dense, sparse, neighbour-list, full-scan, uniform or
// identity similarities; with wide set, subsets long enough that cover
// lists truncate and run out) takes random churn batches the way
// FuzzKernelOverlay drives them. The cover index is built either before the
// first batch, so the sweep runs a canonical kernel's index under the
// overlay after every batch, or after the last batch and then checked once
// more after one further batch. Every photo's swept gain must equal Gain's
// bits, against the empty solution, S0 alone, every photo, and random
// solutions. The seed corpus is
// FuzzKernelOverlay's.
func FuzzCoverSweep(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(9), uint8(3), uint8(3), uint8(0), uint8(0))
	}
	f.Add(int64(42), uint8(30), uint8(8), uint8(6), uint8(1), uint8(0))
	f.Add(int64(-7), uint8(4), uint8(1), uint8(5), uint8(2), uint8(0))
	f.Add(int64(5), uint8(20), uint8(6), uint8(4), uint8(3), uint8(0))
	f.Add(int64(9), uint8(16), uint8(4), uint8(4), uint8(4), uint8(0))
	f.Add(int64(11), uint8(25), uint8(7), uint8(8), uint8(5), uint8(0))
	f.Add(int64(12), uint8(120), uint8(6), uint8(4), uint8(0), uint8(1))
	f.Add(int64(13), uint8(150), uint8(5), uint8(3), uint8(1), uint8(3))
	f.Add(int64(14), uint8(90), uint8(4), uint8(2), uint8(2), uint8(1))
	names := make([]string, 0, len(simVariants))
	for name := range simVariants {
		names = append(names, name)
	}
	slices.Sort(names)
	f.Fuzz(func(t *testing.T, seed int64, photos, subsets, batches, sim, wide uint8) {
		if photos == 0 || subsets == 0 || batches > 16 {
			t.Skip()
		}
		cfg := RandomConfig{
			Photos:     int(photos),
			Subsets:    int(subsets),
			RetainFrac: 0.1,
			SimDensity: 0.5,
		}
		if wide%2 == 1 {
			cfg.MaxSubset, cfg.SimDensity = 2*CoverK+8, 0.9
		}
		variant := simVariants[names[int(sim)%len(names)]]
		for _, early := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			inst := withSims(t, Random(rng, cfg), variant)
			m := &overlayModel{inst: inst, kern: CompileKernel(inst), removed: make([]bool, inst.NumPhotos())}
			if early {
				if m.kern.Covers() == nil {
					t.Fatal("symmetric kernel has no cover index")
				}
				sweepCheck(t, rng, m, "early, before batches")
			}
			for b := range int(batches) {
				m.batch(t, rng)
				if early {
					sweepCheck(t, rng, m, fmt.Sprintf("early, batch %d", b))
				}
			}
			if !early {
				// The first sweep builds the index on the churned kernel;
				// one more batch then runs it under further churn.
				sweepCheck(t, rng, m, "late, after batches")
				if m.kern.Covers() == nil {
					t.Fatal("symmetric kernel has no cover index after churn")
				}
				m.batch(t, rng)
				sweepCheck(t, rng, m, "late, one more batch")
			}
		}
	})
}

// sweepCheck holds AllGainsInto on m's kernel, which builds its cover index
// if it has none yet, to Gain against several solutions.
func sweepCheck(t *testing.T, rng *rand.Rand, m *overlayModel, step string) {
	t.Helper()
	v := &Instance{Cost: m.inst.Cost, Retained: m.inst.Retained, Budget: m.inst.Budget, Subsets: m.inst.Subsets}
	if err := v.Finalize(); err != nil {
		t.Fatalf("%s: Finalize: %v", step, err)
	}
	if err := v.AttachKernel(m.kern); err != nil {
		t.Fatalf("%s: AttachKernel: %v", step, err)
	}
	n := v.NumPhotos()
	sols := map[string][]PhotoID{"empty": nil, "S0": v.Retained, "all": allPhotos(v)}
	for i := 0; i < 3; i++ {
		var sol []PhotoID
		for p := range n {
			if rng.Intn(4) == 0 {
				sol = append(sol, PhotoID(p))
			}
		}
		sols[fmt.Sprintf("random%d", i)] = sol
	}
	for _, name := range []string{"empty", "S0", "all", "random0", "random1", "random2"} {
		e := NewEvaluator(v)
		for _, p := range sols[name] {
			e.Add(p)
		}
		sameAllGains(t, e, step+" "+name)
	}
}
