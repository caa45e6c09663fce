package celf

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phocus/internal/par"
)

// TestFigure3Trace verifies the full Algorithm 2 (UC) run on the paper's
// running example: p1, p6, p2 are selected in that order, then p4 and p5
// complete the solution once the budget admits them.
func TestFigure3TraceUC(t *testing.T) {
	inst := par.Figure1Instance()
	inst.Budget = 3.0 // admits p1 (1.2) + p6 (1.1) + p2 (0.7) exactly
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	sol, stats, err := LazyGreedy(context.Background(), inst, UC, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []par.PhotoID{0, 5, 1} // p1, p6, p2
	if len(sol.Photos) != len(want) {
		t.Fatalf("selected %v, want %v", sol.Photos, want)
	}
	for i, p := range want {
		if sol.Photos[i] != p {
			t.Fatalf("selection order %v, want %v", sol.Photos, want)
		}
	}
	wantScore := 7.83 + 4.61 + 0.81
	if math.Abs(sol.Score-wantScore) > 1e-9 {
		t.Errorf("score = %.4f, want %.4f", sol.Score, wantScore)
	}
	if stats.Selected != 3 {
		t.Errorf("Selected = %d, want 3", stats.Selected)
	}
}

func TestFullBudgetKeepsEverything(t *testing.T) {
	inst := par.Figure1Instance() // budget = total cost
	sol, _, err := LazyGreedy(context.Background(), inst, UC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Photos) != 7 {
		t.Fatalf("with saturating budget selected %d photos, want 7", len(sol.Photos))
	}
	if math.Abs(sol.Score-14) > 1e-9 {
		t.Errorf("score = %g, want 14 (Σ weights)", sol.Score)
	}
}

func TestRetainedAlwaysIncluded(t *testing.T) {
	inst := par.Figure1Instance()
	inst.Budget = 2.5
	inst.Retained = []par.PhotoID{6} // p7, a low-gain photo greedy would skip
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{UC, CB} {
		sol, _, err := LazyGreedy(context.Background(), inst, v, nil)
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
			t.Errorf("%v: retained photo p7 missing from %v", v, sol.Photos)
		}
		if !inst.Feasible(sol.Photos) {
			t.Errorf("%v: infeasible solution %v", v, sol.Photos)
		}
	}
}

func TestSolverPicksBetterVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 25, Subsets: 12, BudgetFrac: 0.25})
		ucSol, _, err := LazyGreedy(context.Background(), inst, UC, nil)
		if err != nil {
			t.Fatal(err)
		}
		cbSol, _, err := LazyGreedy(context.Background(), inst, CB, nil)
		if err != nil {
			t.Fatal(err)
		}
		var s Solver
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Max(ucSol.Score, cbSol.Score)
		if math.Abs(sol.Score-want) > 1e-9 {
			t.Fatalf("Solve score %.6f, want max(UC,CB) = %.6f", sol.Score, want)
		}
		wantWinner := UC
		if cbSol.Score >= ucSol.Score {
			wantWinner = CB
		}
		if s.LastStats.Winner != wantWinner {
			t.Errorf("Winner = %v, want %v", s.LastStats.Winner, wantWinner)
		}
	}
}

// Property: lazy and eager greedy reach the same objective value (they are
// the same algorithm; lazy evaluation only skips provably non-maximal
// recomputations).
func TestLazyMatchesEagerQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{Photos: 18, Subsets: 9, BudgetFrac: 0.3})
		for _, v := range []Variant{UC, CB} {
			lazy, _, err := LazyGreedy(context.Background(), inst, v, nil)
			if err != nil {
				return false
			}
			eager, _, err := EagerGreedy(inst, v)
			if err != nil {
				return false
			}
			if math.Abs(lazy.Score-eager.Score) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLazyGreedyKernelSelectionInvariant: a kernel reassembled from entry slabs
// and attached, as a snapshot load does, must not change a single selection
// against the lazily compiled one — photos, order, score, cost, or
// gain-eval count — for either variant. This is the solver-level face of
// the kernel's bit-identity contract; the par tests hold the kernel itself
// to the jagged reference.
func TestLazyGreedyKernelSelectionInvariant(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{Photos: 40, Subsets: 15, BudgetFrac: 0.3, RetainFrac: 0.1})
		twin := &par.Instance{
			Cost:     inst.Cost,
			Retained: inst.Retained,
			Budget:   inst.Budget,
			Subsets:  inst.Subsets,
		}
		if err := twin.Finalize(); err != nil {
			t.Fatal(err)
		}
		s := par.CompileKernel(twin).Slabs()
		loaded, err := par.KernelFromEntries(twin, s.RowStart, s.NbrIdx, s.NbrSim)
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.AttachKernel(loaded); err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{UC, CB} {
			cmp, cmpStats, err := LazyGreedy(context.Background(), inst, v, nil)
			if err != nil {
				t.Fatal(err)
			}
			att, attStats, err := LazyGreedy(context.Background(), twin, v, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cmp.Score != att.Score || cmp.Cost != att.Cost {
				t.Fatalf("seed %d %v: score/cost %v/%v (compiled) vs %v/%v (attached)",
					seed, v, cmp.Score, cmp.Cost, att.Score, att.Cost)
			}
			if len(cmp.Photos) != len(att.Photos) {
				t.Fatalf("seed %d %v: %d photos (compiled) vs %d (attached)",
					seed, v, len(cmp.Photos), len(att.Photos))
			}
			for i := range cmp.Photos {
				if cmp.Photos[i] != att.Photos[i] {
					t.Fatalf("seed %d %v: selections diverge at %d: %v vs %v",
						seed, v, i, cmp.Photos, att.Photos)
				}
			}
			if cmpStats.GainEvals != attStats.GainEvals || cmpStats.PQPops != attStats.PQPops {
				t.Fatalf("seed %d %v: work mismatch: %d/%d evals, %d/%d pops",
					seed, v, cmpStats.GainEvals, attStats.GainEvals, cmpStats.PQPops, attStats.PQPops)
			}
		}
	}
}

func TestLazySavesGainEvals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := par.Random(rng, par.RandomConfig{Photos: 200, Subsets: 80, BudgetFrac: 0.3})
	_, lazyStats, err := LazyGreedy(context.Background(), inst, CB, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, eagerStats, err := EagerGreedy(inst, CB)
	if err != nil {
		t.Fatal(err)
	}
	if lazyStats.GainEvals >= eagerStats.GainEvals {
		t.Errorf("lazy used %d gain evals, eager %d: lazy evaluation saved nothing",
			lazyStats.GainEvals, eagerStats.GainEvals)
	}
}

// Property: every produced solution is feasible and scores are consistent
// with the reference scorer.
func TestSolutionsFeasibleAndScoredQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{
			Photos: 20, Subsets: 10, BudgetFrac: 0.2 + 0.6*rng.Float64(), RetainFrac: 0.1,
		})
		for _, v := range []Variant{UC, CB} {
			sol, _, err := LazyGreedy(context.Background(), inst, v, nil)
			if err != nil {
				return false
			}
			if !inst.Feasible(sol.Photos) {
				return false
			}
			if math.Abs(par.Score(inst, sol.Photos)-sol.Score) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// With uniform costs Algorithm 1 includes the classic greedy, which is a
// (1−1/e)-approximation; verify the certified ratio respects that bound.
func TestUniformCostGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		inst := par.Random(rng, par.RandomConfig{
			Photos: 15, Subsets: 8, UniformCost: true, BudgetFrac: 0.4,
		})
		var s Solver
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		ratio := CertifiedRatio(inst, sol)
		if ratio < 1-1/math.E-1e-9 {
			t.Errorf("trial %d: certified ratio %.4f below 1-1/e", trial, ratio)
		}
	}
}

func TestOnlineBoundUpperBoundsOPT(t *testing.T) {
	// On instances small enough to enumerate, the online bound of any
	// feasible solution must be ≥ the true optimum.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 10, Subsets: 6, BudgetFrac: 0.35})
		opt := bruteForceScore(inst)
		var s Solver
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		bound := OnlineBound(inst, sol.Photos)
		if bound < opt-1e-9 {
			t.Errorf("trial %d: online bound %.6f below OPT %.6f", trial, bound, opt)
		}
		if sol.Score > bound+1e-9 {
			t.Errorf("trial %d: solution score %.6f above its own bound %.6f", trial, sol.Score, bound)
		}
	}
}

func TestOnlineBoundEmptyInstance(t *testing.T) {
	inst := par.Figure1Instance()
	inst.Budget = 0.1 // nothing fits
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var s Solver
	sol, err := s.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Photos) != 0 || sol.Score != 0 {
		t.Fatalf("expected empty solution, got %v (score %g)", sol.Photos, sol.Score)
	}
	if ratio := CertifiedRatio(inst, sol); ratio < 0 || ratio > 1 {
		t.Errorf("certified ratio %g outside [0,1]", ratio)
	}
}

// bruteForceScore enumerates all feasible subsets (exponential; tests only).
func bruteForceScore(inst *par.Instance) float64 {
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

func TestVariantString(t *testing.T) {
	if UC.String() != "UC" || CB.String() != "CB" {
		t.Error("Variant.String mismatch")
	}
	if got := Variant(9).String(); got != "Variant(9)" {
		t.Errorf("unknown variant string = %q", got)
	}
}
