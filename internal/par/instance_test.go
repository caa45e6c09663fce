package par

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func validInstance() *Instance {
	sim := NewDenseSim(2)
	sim.Set(0, 1, 0.5)
	return &Instance{
		Cost:   []float64{1, 2, 3},
		Budget: 4,
		Subsets: []Subset{
			{Name: "q", Weight: 1, Members: []PhotoID{0, 2}, Relevance: []float64{0.4, 0.6}, Sim: sim},
		},
	}
}

func TestFinalizeValid(t *testing.T) {
	inst := validInstance()
	if err := inst.Finalize(); err != nil {
		t.Fatalf("Finalize() = %v, want nil", err)
	}
	if got := inst.NumPhotos(); got != 3 {
		t.Errorf("NumPhotos() = %d, want 3", got)
	}
	if got := inst.TotalCost(); got != 6 {
		t.Errorf("TotalCost() = %g, want 6", got)
	}
	if got := inst.TotalWeight(); got != 1 {
		t.Errorf("TotalWeight() = %g, want 1", got)
	}
}

func TestFinalizeOccurrences(t *testing.T) {
	inst := validInstance()
	sim := NewDenseSim(2)
	sim.Set(0, 1, 0.9)
	inst.Subsets = append(inst.Subsets, Subset{
		Name: "q2", Weight: 2, Members: []PhotoID{2, 1}, Relevance: []float64{0.5, 0.5}, Sim: sim,
	})
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	occ2 := inst.Occurrences(2)
	if len(occ2) != 2 {
		t.Fatalf("photo 2 has %d occurrences, want 2", len(occ2))
	}
	if occ2[0] != (Occurrence{Subset: 0, Index: 1}) {
		t.Errorf("first occurrence of photo 2 = %+v, want {0 1}", occ2[0])
	}
	if occ2[1] != (Occurrence{Subset: 1, Index: 0}) {
		t.Errorf("second occurrence of photo 2 = %+v, want {1 0}", occ2[1])
	}
	if got := inst.Occurrences(0); len(got) != 1 {
		t.Errorf("photo 0 has %d occurrences, want 1", len(got))
	}
}

func TestFinalizeErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Instance)
		wantSub string
	}{
		{"no photos", func(in *Instance) { in.Cost = nil }, "no photos"},
		{"negative budget", func(in *Instance) { in.Budget = -1 }, "negative budget"},
		{"zero cost", func(in *Instance) { in.Cost[1] = 0 }, "invalid cost"},
		{"nan cost", func(in *Instance) { in.Cost[0] = math.NaN() }, "invalid cost"},
		{"retained out of range", func(in *Instance) { in.Retained = []PhotoID{9} }, "out of range"},
		{"retained negative", func(in *Instance) { in.Retained = []PhotoID{-1} }, "out of range"},
		{"zero weight", func(in *Instance) { in.Subsets[0].Weight = 0 }, "invalid weight"},
		{"empty subset", func(in *Instance) {
			in.Subsets[0].Members = nil
			in.Subsets[0].Relevance = nil
			in.Subsets[0].Sim = NewDenseSim(0)
		}, "is empty"},
		{"relevance length mismatch", func(in *Instance) { in.Subsets[0].Relevance = []float64{1} }, "relevance scores"},
		{"nil sim", func(in *Instance) { in.Subsets[0].Sim = nil }, "nil similarity"},
		{"sim size mismatch", func(in *Instance) { in.Subsets[0].Sim = NewDenseSim(5) }, "similarity over"},
		{"member out of range", func(in *Instance) { in.Subsets[0].Members[0] = 7 }, "out of range"},
		{"duplicate member", func(in *Instance) { in.Subsets[0].Members[1] = 0 }, "twice"},
		{"negative relevance", func(in *Instance) { in.Subsets[0].Relevance = []float64{-0.2, 1.2} }, "invalid relevance"},
		{"relevance not normalized", func(in *Instance) { in.Subsets[0].Relevance = []float64{0.4, 0.4} }, "sums to"},
		{"retained exceeds budget", func(in *Instance) {
			in.Retained = []PhotoID{1, 2}
			in.Budget = 4
		}, "exceeding budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := validInstance()
			tc.mutate(inst)
			err := inst.Finalize()
			if err == nil {
				t.Fatalf("Finalize() = nil, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Finalize() error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// TestRetainedOverBudgetSentinel: Finalize and ViewInto report S0 > B with
// the same text, both wrapping ErrRetainedOverBudget; other validation
// failures do not.
func TestRetainedOverBudgetSentinel(t *testing.T) {
	inst := validInstance()
	inst.Retained = []PhotoID{1, 2}
	inst.Budget = 4
	const want = "par: retained set S0 costs 5 bytes, exceeding budget 4"
	if err := inst.Finalize(); !errors.Is(err, ErrRetainedOverBudget) || err.Error() != want {
		t.Errorf("Finalize() = %v, want %q wrapping ErrRetainedOverBudget", err, want)
	}
	inst.Budget = 5
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var view Instance
	if err := inst.ViewInto(&view, 4); !errors.Is(err, ErrRetainedOverBudget) || err.Error() != want {
		t.Errorf("ViewInto(4) = %v, want %q wrapping ErrRetainedOverBudget", err, want)
	}
	if err := inst.ViewInto(&view, 5); err != nil {
		t.Errorf("ViewInto(5) = %v, want nil", err)
	}
	bad := validInstance()
	bad.Cost[0] = -1
	if err := bad.Finalize(); err == nil || errors.Is(err, ErrRetainedOverBudget) {
		t.Errorf("invalid cost: Finalize() = %v, want an error not wrapping ErrRetainedOverBudget", err)
	}
}

func TestRetainedBookkeeping(t *testing.T) {
	inst := validInstance()
	inst.Retained = []PhotoID{0, 2, 0} // duplicate must not double-count cost
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := inst.RetainedCost(); got != 4 {
		t.Errorf("RetainedCost() = %g, want 4", got)
	}
	if !inst.IsRetained(0) || !inst.IsRetained(2) || inst.IsRetained(1) {
		t.Errorf("IsRetained flags wrong: 0=%v 1=%v 2=%v",
			inst.IsRetained(0), inst.IsRetained(1), inst.IsRetained(2))
	}
}

func TestNormalizeRelevance(t *testing.T) {
	inst := validInstance()
	inst.Subsets[0].Relevance = []float64{2, 6}
	inst.NormalizeRelevance()
	if got := inst.Subsets[0].Relevance; got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("normalized relevance = %v, want [0.25 0.75]", got)
	}

	inst.Subsets[0].Relevance = []float64{0, 0}
	inst.NormalizeRelevance()
	if got := inst.Subsets[0].Relevance; got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("zero-sum relevance normalized to %v, want uniform [0.5 0.5]", got)
	}
}

func TestFeasible(t *testing.T) {
	inst := validInstance()
	inst.Retained = []PhotoID{0}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		s    []PhotoID
		want bool
	}{
		{"retained only", []PhotoID{0}, true},
		{"within budget", []PhotoID{0, 2}, true},
		{"missing retained", []PhotoID{2}, false},
		{"over budget", []PhotoID{0, 1, 2}, false},
		{"duplicate", []PhotoID{0, 0}, false},
		{"out of range", []PhotoID{0, 5}, false},
	}
	for _, tc := range cases {
		if got := inst.Feasible(tc.s); got != tc.want {
			t.Errorf("%s: Feasible(%v) = %v, want %v", tc.name, tc.s, got, tc.want)
		}
	}
}

func TestFigure1InstanceShape(t *testing.T) {
	inst := Figure1Instance()
	if got := inst.NumPhotos(); got != 7 {
		t.Fatalf("NumPhotos() = %d, want 7", got)
	}
	if got := len(inst.Subsets); got != 4 {
		t.Fatalf("len(Subsets) = %d, want 4", got)
	}
	if got := inst.TotalCost(); math.Abs(got-8.1) > 1e-9 {
		t.Errorf("TotalCost() = %g, want 8.1", got)
	}
	// Full archive achieves the maximum score Σ W(q) = 14.
	all := make([]PhotoID, 7)
	for i := range all {
		all[i] = PhotoID(i)
	}
	if got := Score(inst, all); math.Abs(got-14) > 1e-9 {
		t.Errorf("Score(P) = %g, want 14", got)
	}
}
