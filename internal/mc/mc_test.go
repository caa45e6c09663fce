package mc

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"phocus/internal/celf"
	"phocus/internal/par"
)

func randomMC(rng *rand.Rand, ne, ns int) *Instance {
	sets := make([][]int, ns)
	for si := range sets {
		size := 1 + rng.Intn(4)
		if size > ne {
			size = ne
		}
		perm := rng.Perm(ne)
		sets[si] = perm[:size]
	}
	return NewUniform(ne, sets, 1+rng.Intn(ns))
}

func TestValidate(t *testing.T) {
	in := NewUniform(3, [][]int{{0, 1}, {2}}, 1)
	if err := in.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := NewUniform(3, [][]int{{0, 9}}, 1)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Validate() = %v, want out-of-range error", err)
	}
	neg := NewUniform(3, [][]int{{0}}, 1)
	neg.SetCosts[0] = 0
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "non-positive") {
		t.Errorf("Validate() = %v, want non-positive cost error", err)
	}
}

func TestCoverage(t *testing.T) {
	in := NewUniform(4, [][]int{{0, 1}, {1, 2}, {3}}, 2)
	if got := in.Coverage([]int{0, 1}); got != 3 {
		t.Errorf("Coverage({0,1}) = %g, want 3 (element 1 counted once)", got)
	}
	if got := in.Coverage(nil); got != 0 {
		t.Errorf("Coverage(∅) = %g, want 0", got)
	}
	if got := in.TotalWeight(); got != 4 {
		t.Errorf("TotalWeight() = %g, want 4", got)
	}
}

func TestExactSmall(t *testing.T) {
	// Two disjoint pairs beat any overlapping choice.
	in := NewUniform(4, [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}, 2)
	sol := Exact(in)
	if sol.Coverage != 4 {
		t.Errorf("Exact coverage = %g, want 4", sol.Coverage)
	}
}

// Property: the budgeted greedy achieves at least (1−1/e)/2 of the optimum,
// and with uniform costs at least 1−1/e.
func TestGreedyGuaranteeQuick(t *testing.T) {
	factor := 1 - 1/math.E
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomMC(rng, 2+rng.Intn(10), 2+rng.Intn(8))
		opt := Exact(in)
		got := GreedyBudgeted(in)
		if got.Cost > in.Budget {
			return false
		}
		// Verify the reported coverage is consistent.
		if math.Abs(in.Coverage(got.Sets)-got.Coverage) > 1e-12 {
			return false
		}
		return got.Coverage >= factor*opt.Coverage-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestGreedyBudgetedNonUniform(t *testing.T) {
	// A huge set that alone nearly fills the budget vs small efficient sets:
	// the single-set backstop must kick in when density greedy misfires.
	in := &Instance{
		ElementWeights: []float64{10, 1, 1},
		Sets:           [][]int{{0}, {1}, {2}},
		SetCosts:       []float64{5, 1, 1},
		Budget:         5,
	}
	sol := GreedyBudgeted(in)
	if sol.Coverage != 10 {
		t.Errorf("coverage = %g, want 10 (best single set)", sol.Coverage)
	}
}

func TestToPARRejectsWeighted(t *testing.T) {
	in := NewUniform(2, [][]int{{0}, {1}}, 1)
	in.ElementWeights[0] = 2
	if _, err := ToPAR(in); err == nil {
		t.Error("ToPAR accepted weighted elements")
	}
	in2 := NewUniform(2, [][]int{{0}, {1}}, 1)
	in2.SetCosts[1] = 2
	if _, err := ToPAR(in2); err == nil {
		t.Error("ToPAR accepted non-unit set costs")
	}
}

// Property (Theorem 3.4): the reduction preserves objective values exactly —
// for any choice of k sets, MC coverage equals the PAR score of the
// corresponding photos times 1 (each covered element contributes its subset
// weight 1), and solving PAR with CELF yields a cover at least (1−1/e) of
// the MC optimum (uniform costs make the greedy optimal-factor).
func TestReductionQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomMC(rng, 2+rng.Intn(8), 2+rng.Intn(6))
		inst, err := ToPAR(in)
		if err != nil {
			return false
		}
		// Value preservation on a random feasible choice.
		k := int(in.Budget)
		perm := rng.Perm(len(in.Sets))
		if k > len(perm) {
			k = len(perm)
		}
		var photos []par.PhotoID
		for _, si := range perm[:k] {
			photos = append(photos, par.PhotoID(si))
		}
		if math.Abs(par.Score(inst, photos)-in.Coverage(PhotosToSets(photos))) > 1e-9 {
			return false
		}
		// Approximation transfer.
		var s celf.Solver
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			return false
		}
		opt := Exact(in)
		back := in.Coverage(PhotosToSets(sol.Photos))
		return back >= (1-1/math.E)*opt.Coverage-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestToPARDropsUncoverableElements(t *testing.T) {
	in := NewUniform(3, [][]int{{0}}, 1) // elements 1 and 2 uncoverable
	inst, err := ToPAR(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(inst.Subsets); got != 1 {
		t.Errorf("PAR instance has %d subsets, want 1", got)
	}
}

func TestExactPanicsOnLargeInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exact should panic on > 24 sets")
		}
	}()
	Exact(NewUniform(1, make([][]int, 25), 1))
}
