package compress

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phocus/internal/celf"
	"phocus/internal/par"
)

func TestExpandShape(t *testing.T) {
	inst := par.Figure1Instance()
	ex, err := Expand(inst, DefaultLevels())
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Instance.NumPhotos(); got != 7*3 {
		t.Fatalf("expanded photos = %d, want 21", got)
	}
	// Variant costs scale by the level factors.
	if got := ex.Instance.Cost[7]; math.Abs(got-0.35*1.2) > 1e-12 {
		t.Errorf("web variant of p1 costs %g, want 0.42", got)
	}
	if got := ex.Instance.Cost[14]; math.Abs(got-0.08*1.2) > 1e-12 {
		t.Errorf("thumb variant of p1 costs %g, want 0.096", got)
	}
	// Subset membership triples; variants carry zero relevance.
	q := ex.Instance.Subsets[0]
	if len(q.Members) != 9 {
		t.Fatalf("expanded Bikes subset has %d members, want 9", len(q.Members))
	}
	for i := 3; i < 9; i++ {
		if q.Relevance[i] != 0 {
			t.Errorf("variant relevance %g, want 0", q.Relevance[i])
		}
	}
}

func TestExpandValidatesLevels(t *testing.T) {
	inst := par.Figure1Instance()
	for _, bad := range []Level{
		{Name: "x", CostFactor: 0, Quality: 0.5},
		{Name: "x", CostFactor: 1, Quality: 0.5},
		{Name: "x", CostFactor: 0.5, Quality: 0},
		{Name: "x", CostFactor: 0.5, Quality: 1},
	} {
		if _, err := Expand(inst, []Level{bad}); err == nil {
			t.Errorf("level %+v accepted", bad)
		}
	}
}

func TestVariantSimSemantics(t *testing.T) {
	inst := par.Figure1Instance()
	levels := []Level{{Name: "c", CostFactor: 0.3, Quality: 0.8}}
	ex, err := Expand(inst, levels)
	if err != nil {
		t.Fatal(err)
	}
	sim := ex.Instance.Subsets[0].Sim // Bikes: p1,p2,p3 + variants
	// Original pair unchanged.
	if got := sim.Sim(0, 1); got != 0.7 {
		t.Errorf("SIM(p1,p2) = %g, want 0.7", got)
	}
	// Variant of p1 covering p2: 0.7 × 0.8.
	if got := sim.Sim(3, 1); math.Abs(got-0.56) > 1e-12 {
		t.Errorf("SIM(p1',p2) = %g, want 0.56", got)
	}
	// Variant of p1 covering p1 itself: the level quality.
	if got := sim.Sim(3, 0); got != 0.8 {
		t.Errorf("SIM(p1',p1) = %g, want 0.8", got)
	}
	// Self-similarity of a variant is 1 by definition.
	if got := sim.Sim(3, 3); got != 1 {
		t.Errorf("SIM(p1',p1') = %g, want 1", got)
	}
	// Variant-variant of distinct photos: both qualities apply.
	if got := sim.Sim(3, 4); math.Abs(got-0.7*0.8*0.8) > 1e-12 {
		t.Errorf("SIM(p1',p2') = %g, want 0.448", got)
	}
}

// Property: the expanded objective is a faithful extension — solutions that
// only use original photos score identically in both instances.
func TestExpansionConservativeQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{Photos: 10, Subsets: 5})
		ex, err := Expand(inst, DefaultLevels())
		if err != nil {
			return false
		}
		var sol []par.PhotoID
		for p := 0; p < 10; p++ {
			if rng.Intn(2) == 0 {
				sol = append(sol, par.PhotoID(p))
			}
		}
		return math.Abs(par.Score(inst, sol)-par.Score(ex.Instance, sol)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// At tight budgets, the option to compress must never hurt and usually
// helps: the solver can afford more (degraded) coverage providers.
func TestCompressionHelpsAtTightBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	improved := 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 30, Subsets: 15, BudgetFrac: 0.15, SimDensity: 0.7})
		var plain celf.Solver
		base, err := plain.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Expand(inst, DefaultLevels())
		if err != nil {
			t.Fatal(err)
		}
		var comp celf.Solver
		csol, err := comp.Solve(context.Background(), ex.Instance)
		if err != nil {
			t.Fatal(err)
		}
		// The expanded OPTIMUM dominates the plain one, but the greedy
		// heuristic explores a 3x candidate space and can dip slightly;
		// tolerate sub-percent dips (deployments fall back to the plain
		// solve, see the compression example/experiment).
		if csol.Score < 0.99*base.Score {
			t.Fatalf("trial %d: compression option hurt: %.4f < %.4f", trial, csol.Score, base.Score)
		}
		if csol.Score > base.Score+1e-9 {
			improved++
		}
	}
	if improved < trials/2 {
		t.Errorf("compression improved only %d/%d tight-budget instances", improved, trials)
	}
}

func TestInterpret(t *testing.T) {
	inst := par.Figure1Instance()
	levels := DefaultLevels()
	ex, err := Expand(inst, levels)
	if err != nil {
		t.Fatal(err)
	}
	// Selected: p1 full (ID 0), p2 web (ID 7+1=8), p2 thumb (ID 14+1=15),
	// p6 thumb (ID 14+5=19). p2's best variant is web.
	plan := ex.Interpret(par.Solution{Photos: []par.PhotoID{0, 8, 15, 19}})
	if len(plan.Keep) != 3 {
		t.Fatalf("kept %d photos, want 3", len(plan.Keep))
	}
	byPhoto := map[par.PhotoID]Choice{}
	for _, c := range plan.Keep {
		byPhoto[c.Photo] = c
	}
	if c := byPhoto[0]; c.Level != nil {
		t.Errorf("p1 should be full quality, got level %v", c.Level)
	}
	if c := byPhoto[1]; c.Level == nil || c.Level.Name != "web" {
		t.Errorf("p2 should be web-compressed, got %+v", c)
	}
	if c := byPhoto[5]; c.Level == nil || c.Level.Name != "thumb" {
		t.Errorf("p6 should be thumb-compressed, got %+v", c)
	}
	if got := len(plan.Archive); got != 4 {
		t.Errorf("archived %d, want 4", got)
	}
	wantCost := 1.2 + 0.35*0.7 + 0.08*1.1
	if math.Abs(plan.Cost-wantCost) > 1e-12 {
		t.Errorf("plan cost %g, want %g", plan.Cost, wantCost)
	}
}

// Retained photos stay retained at full quality in the expanded instance.
func TestExpandKeepsRetention(t *testing.T) {
	inst := par.Figure1Instance()
	inst.Retained = []par.PhotoID{5}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	ex, err := Expand(inst, DefaultLevels())
	if err != nil {
		t.Fatal(err)
	}
	var s celf.Solver
	sol, err := s.Solve(context.Background(), ex.Instance)
	if err != nil {
		t.Fatal(err)
	}
	plan := ex.Interpret(sol)
	found := false
	for _, c := range plan.Keep {
		if c.Photo == 5 && c.Level == nil {
			found = true
		}
	}
	if !found {
		t.Error("retained photo not kept at full quality")
	}
}

// The expanded similarity must satisfy the model's contract (symmetry,
// range, unit diagonal) — verified by the shared sampling checker.
func TestVariantSimWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := par.Random(rng, par.RandomConfig{Photos: 12, Subsets: 6})
	ex, err := Expand(inst, DefaultLevels())
	if err != nil {
		t.Fatal(err)
	}
	if err := par.CheckSimilarity(rng, ex.Instance, 400); err != nil {
		t.Errorf("expanded similarity defect: %v", err)
	}
}
