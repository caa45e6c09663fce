package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phocus/internal/celf"
	"phocus/internal/par"
)

func TestRandAddFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 15, Subsets: 7, BudgetFrac: 0.3, RetainFrac: 0.1})
		r := RandAdd{Seed: int64(trial)}
		sol, err := r.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if !inst.Feasible(sol.Photos) {
			t.Fatalf("trial %d: infeasible RAND-A solution", trial)
		}
		if math.Abs(par.Score(inst, sol.Photos)-sol.Score) > 1e-9 {
			t.Fatalf("trial %d: reported score inconsistent", trial)
		}
	}
}

func TestRandAddDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := par.Random(rng, par.RandomConfig{Photos: 20, Subsets: 8, BudgetFrac: 0.3})
	a := RandAdd{Seed: 99}
	s1, _ := a.Solve(context.Background(), inst)
	s2, _ := a.Solve(context.Background(), inst)
	if len(s1.Photos) != len(s2.Photos) {
		t.Fatal("RAND-A not deterministic for fixed seed")
	}
	for i := range s1.Photos {
		if s1.Photos[i] != s2.Photos[i] {
			t.Fatal("RAND-A not deterministic for fixed seed")
		}
	}
}

func TestRandDeleteFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 15, Subsets: 7, BudgetFrac: 0.4, RetainFrac: 0.1})
		r := RandDelete{Seed: int64(trial)}
		sol, err := r.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if !inst.Feasible(sol.Photos) {
			t.Fatalf("trial %d: infeasible RAND-D solution", trial)
		}
	}
}

func TestRandDeleteKeepsEverythingUnderLargeBudget(t *testing.T) {
	inst := par.Figure1Instance() // budget = total cost
	r := RandDelete{Seed: 4}
	sol, err := r.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Photos) != 7 {
		t.Errorf("RAND-D deleted %d photos under a saturating budget", 7-len(sol.Photos))
	}
}

func TestGreedyNRIgnoresSimilarity(t *testing.T) {
	// Two subsets over disjoint photo pairs; within each subset the two
	// photos are near-duplicates (sim 0.95). Budget for two photos.
	// Greedy-NR sees no redundancy structure but still covers both subsets
	// (one photo each) because a second photo of a covered subset has zero
	// surrogate gain. The difference shows in the TRUE score: it picks
	// arbitrarily and cannot exploit that one photo nearly covers both
	// members. Here we just verify it selects one photo per subset.
	sim := func() *par.DenseSim {
		d := par.NewDenseSim(2)
		d.Set(0, 1, 0.95)
		return d
	}
	inst := &par.Instance{
		Cost:   []float64{1, 1, 1, 1},
		Budget: 2,
		Subsets: []par.Subset{
			{Name: "a", Weight: 1, Members: []par.PhotoID{0, 1}, Relevance: []float64{0.5, 0.5}, Sim: sim()},
			{Name: "b", Weight: 1, Members: []par.PhotoID{2, 3}, Relevance: []float64{0.5, 0.5}, Sim: sim()},
		},
	}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	nr := NewGreedyNR()
	sol, err := nr.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Photos) != 2 {
		t.Fatalf("Greedy-NR selected %v, want one photo per subset", sol.Photos)
	}
	seen := map[bool]bool{}
	for _, p := range sol.Photos {
		seen[p <= 1] = true
	}
	if !seen[true] || !seen[false] {
		t.Errorf("Greedy-NR selected %v, want one photo from each subset", sol.Photos)
	}
	// True score: each subset gets 0.5·1 + 0.5·0.95.
	want := 2 * (0.5 + 0.5*0.95)
	if math.Abs(sol.Score-want) > 1e-9 {
		t.Errorf("true score = %g, want %g", sol.Score, want)
	}
}

func TestGreedyNCSUsesGlobalSim(t *testing.T) {
	// Contextual similarity says p0 covers p1 perfectly in subset "a"
	// (sim 1) but the global similarity claims they are unrelated. With
	// budget 1, PHOcus would pick either photo of subset a and score 1;
	// Greedy-NCS's surrogate sees no coverage and ranks by plain relevance
	// mass, picking p2 (the high-weight singleton subset), which truly
	// scores lower. The test pins the surrogate's behaviour.
	simA := par.NewDenseSim(2)
	simA.Set(0, 1, 1)
	inst := &par.Instance{
		Cost:   []float64{1, 1, 1},
		Budget: 1,
		Subsets: []par.Subset{
			{Name: "a", Weight: 2, Members: []par.PhotoID{0, 1}, Relevance: []float64{0.5, 0.5}, Sim: simA},
			{Name: "b", Weight: 1.2, Members: []par.PhotoID{2}, Relevance: []float64{1}, Sim: par.NewDenseSim(1)},
		},
	}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	ncs := NewGreedyNCS(func(p1, p2 par.PhotoID) float64 {
		if p1 == p2 {
			return 1
		}
		return 0
	})
	sol, err := ncs.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	// Surrogate gains: p0/p1 = 2·0.5 = 1.0 each; p2 = 1.2. NCS picks p2.
	if len(sol.Photos) != 1 || sol.Photos[0] != 2 {
		t.Fatalf("Greedy-NCS selected %v, want [2]", sol.Photos)
	}
	if math.Abs(sol.Score-1.2) > 1e-9 {
		t.Errorf("true score = %g, want 1.2", sol.Score)
	}
	// PHOcus (true contextual sim) prefers a photo of subset a: score 2.
	var ph celf.Solver
	psol, err := ph.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if psol.Score <= sol.Score {
		t.Errorf("contextual solver (%g) should beat NCS (%g) here", psol.Score, sol.Score)
	}
}

// Property: all baselines produce feasible solutions whose reported score
// matches the true objective. PHOcus dominating every baseline on every
// instance is NOT a theorem (a surrogate greedy can luck into a better
// set), so dominance is asserted statistically over the whole run instead
// of per instance.
func TestBaselineProtocolQuick(t *testing.T) {
	var phWins, comparisons int
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{Photos: 18, Subsets: 9, BudgetFrac: 0.3, RetainFrac: 0.05})
		global := func(p1, p2 par.PhotoID) float64 {
			if p1 == p2 {
				return 1
			}
			return 0.2
		}
		solvers := []par.Solver{
			&RandAdd{Seed: seed},
			&RandDelete{Seed: seed},
			NewGreedyNR(),
			NewGreedyNCS(global),
		}
		var ph celf.Solver
		psol, err := ph.Solve(context.Background(), inst)
		if err != nil {
			return false
		}
		for _, s := range solvers {
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
			comparisons++
			if psol.Score >= sol.Score-1e-9 {
				phWins++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if comparisons == 0 || float64(phWins) < 0.85*float64(comparisons) {
		t.Errorf("PHOcus won only %d of %d baseline comparisons", phWins, comparisons)
	}
}

func TestNames(t *testing.T) {
	if (&RandAdd{}).Name() != "RAND-A" || (&RandDelete{}).Name() != "RAND-D" {
		t.Error("random baseline names wrong")
	}
	if NewGreedyNR().Name() != "Greedy-NR" || NewGreedyNCS(nil).Name() != "Greedy-NCS" {
		t.Error("greedy baseline names wrong")
	}
}
