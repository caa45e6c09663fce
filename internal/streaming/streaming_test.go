package streaming

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phocus/internal/celf"
	"phocus/internal/par"
)

func TestName(t *testing.T) {
	var s Solver
	if s.Name() != "Sieve-Streaming" {
		t.Errorf("Name() = %q", s.Name())
	}
}

// Property: streamed solutions are feasible with consistent scores.
func TestFeasibleQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{
			Photos: 25, Subsets: 12, BudgetFrac: 0.1 + 0.5*rng.Float64(), RetainFrac: 0.05,
		})
		var s Solver
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			return false
		}
		if !inst.Feasible(sol.Photos) {
			return false
		}
		return math.Abs(par.Score(inst, sol.Photos)-sol.Score) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Empirical quality: a single pass should stay within a modest factor of
// CELF. The deterministic seed makes this a regression bound rather than a
// theorem.
func TestQualityVsCELF(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var totalStream, totalCELF float64
	for trial := 0; trial < 20; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 60, Subsets: 25, BudgetFrac: 0.25})
		var ss Solver
		stream, err := ss.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		var cs celf.Solver
		greedy, err := cs.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if stream.Score < 0.5*greedy.Score {
			t.Errorf("trial %d: streaming %.4f below half of CELF %.4f", trial, stream.Score, greedy.Score)
		}
		totalStream += stream.Score
		totalCELF += greedy.Score
	}
	if totalStream < 0.85*totalCELF {
		t.Errorf("streaming total %.2f below 85%% of CELF total %.2f", totalStream, totalCELF)
	}
}

func TestEpsilonControlsSieves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := par.Random(rng, par.RandomConfig{Photos: 40, Subsets: 18, BudgetFrac: 0.3})
	coarse := Solver{Epsilon: 0.5}
	if _, err := coarse.Solve(context.Background(), inst); err != nil {
		t.Fatal(err)
	}
	fine := Solver{Epsilon: 0.05}
	if _, err := fine.Solve(context.Background(), inst); err != nil {
		t.Fatal(err)
	}
	if fine.LastStats.Sieves <= coarse.LastStats.Sieves {
		t.Errorf("ε=0.05 used %d sieves, ε=0.5 used %d; grid not densifying",
			fine.LastStats.Sieves, coarse.LastStats.Sieves)
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
	found := false
	for _, p := range sol.Photos {
		if p == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("retained photo missing from %v", sol.Photos)
	}
}

func TestNothingFitsBeyondRetained(t *testing.T) {
	inst := par.Figure1Instance()
	inst.Budget = 1.31 // p7 (1.3) retained; nothing else fits
	inst.Retained = []par.PhotoID{6}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var s Solver
	sol, err := s.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Photos) != 1 || sol.Photos[0] != 6 {
		t.Errorf("solution %v, want just the retained photo", sol.Photos)
	}
	if s.LastStats.Sieves != 0 {
		t.Errorf("sieves = %d, want 0 when nothing fits", s.LastStats.Sieves)
	}
}

func TestSingletonBackstop(t *testing.T) {
	// One photo worth everything, whose density is low (huge but valuable);
	// many cheap low-value photos. Density thresholds for large OPT guesses
	// reject the big photo only if its density is below guess/(2B) — the
	// backstop must still return it when it is the best choice.
	inst := &par.Instance{
		Cost:   []float64{10, 1, 1},
		Budget: 10,
		Subsets: []par.Subset{
			{Name: "big", Weight: 10, Members: []par.PhotoID{0}, Relevance: []float64{1}, Sim: par.NewDenseSim(1)},
			{Name: "small", Weight: 1, Members: []par.PhotoID{1, 2}, Relevance: []float64{0.5, 0.5}, Sim: par.NewDenseSim(2)},
		},
	}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var s Solver
	sol, err := s.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal is {p0} with score 10 (budget excludes adding both others
	// once p0 is in? 10+1+1 = 12 > 10, so exactly {p0} or {p1,p2}).
	if math.Abs(sol.Score-10) > 1e-9 {
		t.Errorf("score %.4f, want 10 via the big photo", sol.Score)
	}
}
