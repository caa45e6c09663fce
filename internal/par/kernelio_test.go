package par

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"phocus/internal/gomaxprocs"
)

// sameKernelSlabs fails t unless a and b hold equal slabs, field by field
// and element by element (==).
func sameKernelSlabs(t *testing.T, label string, want, got KernelSlabs) {
	t.Helper()
	if want.Photos != got.Photos {
		t.Fatalf("%s: photos %d, want %d", label, got.Photos, want.Photos)
	}
	for _, f := range []struct {
		name string
		eq   bool
	}{
		{"RowLen", slices.Equal(want.RowLen, got.RowLen)},
		{"RowStart", slices.Equal(want.RowStart, got.RowStart)},
		{"NbrIdx", slices.Equal(want.NbrIdx, got.NbrIdx)},
		{"NbrSim", slices.Equal(want.NbrSim, got.NbrSim)},
		{"SlotWR", slices.Equal(want.SlotWR, got.SlotWR)},
		{"OccStart", slices.Equal(want.OccStart, got.OccStart)},
		{"OccRow", slices.Equal(want.OccRow, got.OccRow)},
	} {
		if !f.eq {
			t.Fatalf("%s: slab %s differs", label, f.name)
		}
	}
}

// unfinalized returns an instance over inst's costs and subsets with every
// Sim cleared, as a snapshot decode holds it before it builds the kernel.
func unfinalized(inst *Instance) *Instance {
	out := &Instance{Cost: inst.Cost, Retained: inst.Retained, Subsets: slices.Clone(inst.Subsets)}
	for qi := range out.Subsets {
		out.Subsets[qi].Sim = nil
	}
	return out
}

// TestKernelFromEntriesMatchesCompile: the layout KernelFromEntries builds
// around a compiled kernel's entry slabs is CompileKernel's, so the rebuilt
// kernel's Slabs equal the compiled ones on every field, for every kind of
// similarity a kernel is compiled from (a SparseSim's rows, a DenseSim's
// tabulated cells, UniformSim, and views of another kernel) at GOMAXPROCS 1
// and 2. Both are held to a layout written out from the finalized
// instance: W(q)·R(q, member) per row, and each photo's rows in
// Occurrences order.
func TestKernelFromEntriesMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := Random(rng, RandomConfig{Photos: 200, Subsets: 30, MaxSubset: 40, RetainFrac: 0.05, SimDensity: 0.5})
	variants := map[string]func(testing.TB) *Instance{
		"dense":   func(t testing.TB) *Instance { return withSims(t, base, simVariants["dense"]) },
		"sparse":  func(t testing.TB) *Instance { return withSims(t, base, simVariants["sparse"]) },
		"uniform": func(t testing.TB) *Instance { return withSims(t, base, simVariants["uniform"]) },
		"kernel view": func(t testing.TB) *Instance {
			inst := withSims(t, base, simVariants["dense"])
			SetKernelSims(inst.Subsets, CompileKernel(inst))
			return inst
		},
	}
	for name, build := range variants {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				gomaxprocs.Set(t, procs)
				inst := build(t)
				want := CompileKernel(inst).Slabs()
				got, err := KernelFromEntries(unfinalized(inst), want.RowStart, want.NbrIdx, want.NbrSim)
				if err != nil {
					t.Fatal(err)
				}
				sameKernelSlabs(t, name, want, got.Slabs())

				var slotWR []float64
				var subOff []int32
				var rows int32
				for _, q := range inst.Subsets {
					subOff = append(subOff, rows)
					rows += int32(len(q.Members))
					for _, r := range q.Relevance {
						slotWR = append(slotWR, q.Weight*r)
					}
				}
				if !slices.Equal(want.SlotWR, slotWR) {
					t.Fatal("slot weights are not W(q)·R(q, member) row by row")
				}
				for p := range inst.NumPhotos() {
					var occ []int32
					for _, oc := range inst.Occurrences(PhotoID(p)) {
						occ = append(occ, subOff[oc.Subset]+int32(oc.Index))
					}
					if got := want.OccRow[want.OccStart[p]:want.OccStart[p+1]]; !slices.Equal(got, occ) {
						t.Fatalf("photo %d occupies rows %v, want %v in Occurrences order", p, got, occ)
					}
				}
			})
		}
	}
}

// TestKernelFromEntriesRejectsBadLayout: the instance may come from
// untrusted bytes, so a member outside the photos, a relevance list of the
// wrong length, or entry slabs of another layout return an error before
// anything is indexed, never a panic.
func TestKernelFromEntriesRejectsBadLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inst := Random(rng, RandomConfig{Photos: 20, Subsets: 4, MaxSubset: 8, SimDensity: 0.5})
	s := CompileKernel(inst).Slabs()
	for _, tc := range []struct {
		name, want string
		mangle     func(in *Instance)
	}{
		{"member past the photos", "outside [0,20)", func(in *Instance) {
			in.Subsets[1].Members = slices.Clone(in.Subsets[1].Members)
			in.Subsets[1].Members[0] = 20
		}},
		{"negative member", "outside [0,20)", func(in *Instance) {
			in.Subsets[2].Members = slices.Clone(in.Subsets[2].Members)
			in.Subsets[2].Members[0] = -1
		}},
		{"short relevance", "relevance scores", func(in *Instance) {
			in.Subsets[0].Relevance = in.Subsets[0].Relevance[1:]
		}},
		{"missing subset", "rowStart holds", func(in *Instance) {
			in.Subsets = in.Subsets[:len(in.Subsets)-1]
		}},
		{"fewer photos", "outside [0,", func(in *Instance) {
			in.Cost = in.Cost[:1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := unfinalized(inst)
			tc.mangle(in)
			_, err := KernelFromEntries(in, s.RowStart, s.NbrIdx, s.NbrSim)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
