package exact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phocus/internal/par"
)

// enumerateOPT is the trivially correct exponential reference.
func enumerateOPT(inst *par.Instance) float64 {
	n := inst.NumPhotos()
	var best float64
	for mask := 0; mask < 1<<n; mask++ {
		var s []par.PhotoID
		for p := 0; p < n; p++ {
			if mask&(1<<p) != 0 {
				s = append(s, par.PhotoID(p))
			}
		}
		if !inst.Feasible(s) {
			continue
		}
		if sc := par.Score(inst, s); sc > best {
			best = sc
		}
	}
	return best
}

func TestSolveMatchesEnumerationQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{
			Photos: 10, Subsets: 5, BudgetFrac: 0.2 + 0.5*rng.Float64(), RetainFrac: 0.1,
		})
		var s Solver
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			return false
		}
		if !inst.Feasible(sol.Photos) {
			return false
		}
		return math.Abs(sol.Score-enumerateOPT(inst)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveFigure1(t *testing.T) {
	inst := par.Figure1Instance()
	inst.Budget = 3.0
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var s Solver
	sol, err := s.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	want := enumerateOPT(inst)
	if math.Abs(sol.Score-want) > 1e-9 {
		t.Errorf("Solve score = %.4f, want OPT = %.4f", sol.Score, want)
	}
	// The greedy trace's solution {p1,p6,p2} scores 13.25, which happens to
	// be optimal at this budget; the exact solver must match it.
	if math.Abs(sol.Score-13.25) > 1e-9 {
		t.Errorf("OPT at budget 3.0 = %.4f, want 13.25", sol.Score)
	}
}

func TestRetainedHonored(t *testing.T) {
	inst := par.Figure1Instance()
	inst.Budget = 3.0
	inst.Retained = []par.PhotoID{6}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var s Solver
	sol, err := s.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	has := false
	for _, p := range sol.Photos {
		if p == 6 {
			has = true
		}
	}
	if !has {
		t.Fatalf("retained photo missing from optimal solution %v", sol.Photos)
	}
	if math.Abs(sol.Score-enumerateOPT(inst)) > 1e-9 {
		t.Errorf("score %.4f is not optimal", sol.Score)
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := par.Random(rng, par.RandomConfig{Photos: 30, Subsets: 15, BudgetFrac: 0.5})
	s := Solver{MaxNodes: 5}
	_, err := s.Solve(context.Background(), inst)
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("Solve error = %v, want ErrNodeLimit", err)
	}
	if s.LastStats.Nodes != 6 {
		t.Errorf("node counter = %d, want to stop at limit+1 = 6", s.LastStats.Nodes)
	}
}

func TestPruningHappens(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := par.Random(rng, par.RandomConfig{Photos: 14, Subsets: 7, BudgetFrac: 0.3})
	var s Solver
	if _, err := s.Solve(context.Background(), inst); err != nil {
		t.Fatal(err)
	}
	if s.LastStats.Nodes >= 1<<14 {
		t.Errorf("expanded %d nodes, no better than enumeration", s.LastStats.Nodes)
	}
	if s.LastStats.Pruned == 0 {
		t.Error("upper bound never pruned anything")
	}
}

func TestName(t *testing.T) {
	var s Solver
	if s.Name() != "Brute-Force" {
		t.Errorf("Name() = %q", s.Name())
	}
}
