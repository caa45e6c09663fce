package par

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"phocus/internal/gomaxprocs"
)

// compileKernelRef is the reference compile, the per-row pass: one
// goroutine, rows appended in subset order, member order, every row listed
// (NeighborLister) or scanned (Sim(mi, i) for every member mi, each pair
// read in both orientations) exactly once.
func compileKernelRef(inst *Instance) *Kernel {
	k := &Kernel{photos: inst.NumPhotos(), rowLen: make([]int32, len(inst.Subsets))}
	subOff := make([]int32, len(inst.Subsets))
	k.rowStart = []int64{0}
	var row []Neighbor
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		off := int32(len(k.slotWR))
		subOff[qi], k.rowLen[qi] = off, int32(len(q.Members))
		for mi := range q.Members {
			k.slotWR = append(k.slotWR, q.Weight*q.Relevance[mi])
		}
		for i := range q.Members {
			if nl, ok := q.Sim.(NeighborLister); ok {
				row = nl.AppendNeighbors(row[:0], i)
				for _, nb := range row {
					k.nbrIdx = append(k.nbrIdx, off+int32(nb.Index))
					k.nbrSim = append(k.nbrSim, nb.Sim)
				}
			} else {
				for mi := range q.Members {
					if s := q.Sim.Sim(mi, i); s > 0 {
						k.nbrIdx = append(k.nbrIdx, off+int32(mi))
						k.nbrSim = append(k.nbrSim, s)
					}
				}
			}
			k.rowStart = append(k.rowStart, int64(len(k.nbrIdx)))
		}
	}
	k.occStart = []int32{}
	for p := range inst.NumPhotos() {
		k.occStart = append(k.occStart, int32(len(k.occRow)))
		for _, oc := range inst.occ[p] {
			k.occRow = append(k.occRow, subOff[oc.Subset]+int32(oc.Index))
		}
	}
	k.occStart = append(k.occStart, int32(len(k.occRow)))
	return k
}

// thresholdRef is the reference τ-sparsification: one goroutine, one pass
// over the entries, each kept when its similarity is at least tau.
func thresholdRef(k *Kernel, tau float64) (t *Kernel, before, after int) {
	rows := k.Rows()
	t = &Kernel{photos: k.photos, rowLen: slices.Clone(k.rowLen), rowStart: []int64{0},
		slotWR: slices.Clone(k.slotWR), occStart: slices.Clone(k.occStart), occRow: slices.Clone(k.occRow)}
	t.nbrIdx, t.nbrSim = []int32{}, []float64{}
	for r := 0; r < rows; r++ {
		for e := k.rowStart[r]; e < k.rowStart[r+1]; e++ {
			if k.nbrSim[e] >= tau {
				t.nbrIdx = append(t.nbrIdx, k.nbrIdx[e])
				t.nbrSim = append(t.nbrSim, k.nbrSim[e])
			}
		}
		t.rowStart = append(t.rowStart, int64(len(t.nbrIdx)))
	}
	return t, (len(k.nbrIdx) - rows) / 2, (len(t.nbrIdx) - rows) / 2
}

// sameSlabs fails unless got's slabs equal want's: == on every index and
// offset, bit for bit on every similarity and slot weight.
func sameSlabs(t testing.TB, label string, want, got *Kernel) {
	t.Helper()
	w, g := want.Slabs(), got.Slabs()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !slices.EqualFunc(w.NbrSim, g.NbrSim, bits) || !slices.EqualFunc(w.SlotWR, g.SlotWR, bits) {
		t.Fatalf("%s: similarity or slot-weight slab differs", label)
	}
	w.NbrSim, w.SlotWR, g.NbrSim, g.SlotWR = nil, nil, nil, nil
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: index slabs differ", label)
	}
}

// checkCompileWorkers holds CompileKernel at GOMAXPROCS 1, 2 and 8 to the
// sequential reference.
func checkCompileWorkers(t testing.TB, label string, inst *Instance) {
	t.Helper()
	ref := compileKernelRef(inst)
	gomaxprocs.Each(t, func(n int) {
		sameSlabs(t, fmt.Sprintf("%s GOMAXPROCS=%d", label, n), ref, CompileKernel(inst))
	})
}

// TestCompileKernelWorkers: the parallel compile's slabs, allocated once and
// filled run by run, are == at every GOMAXPROCS and equal to the
// sequential reference's, on every similarity the repository ships, on
// kernel views, canonical and after overlay churn (a compaction), and on
// subsets large enough that their rows split over several runs.
func TestCompileKernelWorkers(t *testing.T) {
	names := make([]string, 0, len(simVariants))
	for name := range simVariants {
		names = append(names, name)
	}
	slices.Sort(names)
	shapes := []RandomConfig{
		{Photos: 30, Subsets: 8, SimDensity: 0.5},
		{Photos: 600, Subsets: 12, MaxSubset: 300, SimDensity: 0.3},
	}
	for si, shape := range shapes {
		for _, name := range names {
			rng := rand.New(rand.NewSource(int64(si + 1)))
			inst := withSims(t, Random(rng, shape), simVariants[name])
			rowCost := func(qi, _ int) int64 { return int64(len(inst.Subsets[qi].Members)) }
			if si == 1 && len(rowRuns(inst, subOffsets(inst), 8, rowCost)) < 4 {
				t.Fatalf("%s: large shape compiles in too few runs to split subsets", name)
			}
			label := fmt.Sprintf("shape %d %s", si, name)
			checkCompileWorkers(t, label, inst)

			views := &Instance{Cost: inst.Cost, Retained: inst.Retained, Budget: inst.Budget,
				Subsets: slices.Clone(inst.Subsets)}
			if err := views.Finalize(); err != nil {
				t.Fatal(err)
			}
			SetKernelSims(views.Subsets, compileKernelRef(inst))
			checkCompileWorkers(t, label+" views", views)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := withSims(t, Random(rng, RandomConfig{Photos: 40, Subsets: 10, RetainFrac: 0.1}), simVariants["dense"])
		m := &overlayModel{inst: inst, kern: CompileKernel(inst), removed: make([]bool, inst.NumPhotos())}
		for b := range 6 {
			m.batch(t, rng)
			views := &Instance{Cost: m.inst.Cost, Retained: m.inst.Retained, Budget: m.inst.Budget,
				Subsets: slices.Clone(m.inst.Subsets)}
			SetKernelSims(views.Subsets, m.kern)
			if err := views.Finalize(); err != nil {
				t.Fatal(err)
			}
			checkCompileWorkers(t, fmt.Sprintf("seed %d overlay views after batch %d", seed, b), views)
		}
	}
}

// subOffsets returns each subset's first global row, and the row count
// last, as compileKernel lays them out.
func subOffsets(inst *Instance) []int32 {
	off := make([]int32, 0, len(inst.Subsets)+1)
	rows := int32(0)
	for qi := range inst.Subsets {
		off = append(off, rows)
		rows += int32(len(inst.Subsets[qi].Members))
	}
	return append(off, rows)
}
