package sviridenko

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phocus/internal/celf"
	"phocus/internal/exact"
	"phocus/internal/par"
)

func TestFigure1(t *testing.T) {
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
	// OPT at budget 3.0 is 13.25 (verified by the exact solver's tests);
	// partial enumeration with depth 3 finds it on this tiny instance.
	if math.Abs(sol.Score-13.25) > 1e-9 {
		t.Errorf("score = %.4f, want 13.25", sol.Score)
	}
	if s.LastStats.Seeds == 0 {
		t.Error("no seeds enumerated")
	}
}

// Property: solutions are feasible and achieve at least the (1−1/e) factor
// of the true optimum on instances small enough to solve exactly. (The
// guarantee needs depth 3; we also check depth 1 and 2 stay feasible.)
func TestGuaranteeQuick(t *testing.T) {
	factor := 1 - 1/math.E
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{
			Photos: 9, Subsets: 5, BudgetFrac: 0.25 + 0.4*rng.Float64(),
		})
		var ex exact.Solver
		opt, err := ex.Solve(context.Background(), inst)
		if err != nil {
			return false
		}
		s := Solver{Depth: 3}
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			return false
		}
		if !inst.Feasible(sol.Photos) {
			return false
		}
		if math.Abs(par.Score(inst, sol.Photos)-sol.Score) > 1e-9 {
			return false
		}
		return sol.Score >= factor*opt.Score-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDepthsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := par.Random(rng, par.RandomConfig{Photos: 12, Subsets: 6, BudgetFrac: 0.3, RetainFrac: 0.1})
	var prev float64 = -1
	for depth := 1; depth <= 3; depth++ {
		s := Solver{Depth: depth}
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if !inst.Feasible(sol.Photos) {
			t.Fatalf("depth %d: infeasible solution", depth)
		}
		if sol.Score < prev-1e-9 {
			t.Errorf("depth %d score %.4f below depth %d score %.4f (deeper enumeration must not hurt)",
				depth, sol.Score, depth-1, prev)
		}
		prev = sol.Score
	}
}

// Sviridenko never loses to the CB greedy: the empty-seed density
// completion is exactly the CB greedy run, so enumeration can only improve
// on it.
func TestDominatesCBGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 12, Subsets: 6, BudgetFrac: 0.3})
		cbSol, _, err := celf.LazyGreedy(context.Background(), inst, celf.CB, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ss Solver
		ssol, err := ss.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if ssol.Score < cbSol.Score-1e-9 {
			t.Errorf("trial %d: Sviridenko %.4f below CB greedy %.4f", trial, ssol.Score, cbSol.Score)
		}
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
	if !inst.Feasible(sol.Photos) {
		t.Fatalf("infeasible solution %v", sol.Photos)
	}
}

func TestName(t *testing.T) {
	var s Solver
	if s.Name() != "Sviridenko" {
		t.Errorf("Name() = %q", s.Name())
	}
}
