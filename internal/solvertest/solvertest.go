// Package solvertest is the shared conformance suite for par.Solver
// implementations. Every solver package runs Contract against its solver,
// so the invariants below are enforced uniformly:
//
//  1. feasibility — C(S) ≤ B, S0 ⊆ S, no duplicates — on a spread of random
//     instances (tight and generous budgets, with and without retention);
//  2. score consistency — the reported score equals par.Score of the
//     reported photos;
//  3. determinism — solving the same instance twice gives the same result;
//  4. saturation (optional) — with a budget covering the whole archive the
//     solver retains everything of value, reaching Σ W(q).
//
// Every solver package also runs CancelContract, the cancellation clauses.
package solvertest

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"phocus/internal/par"
)

// Options selects optional contract clauses.
type Options struct {
	// Saturates asserts clause 4. Leave false for solvers that legitimately
	// skip zero-density photos (e.g. threshold-based streaming).
	Saturates bool
	// Trials is the number of random instances (default 25).
	Trials int
}

// Factory builds a fresh solver per call (some solvers carry per-run state
// like LastStats; a factory keeps runs independent).
type Factory func() par.Solver

// Contract runs the conformance suite.
func Contract(t *testing.T, mk Factory, opts Options) {
	t.Helper()
	trials := opts.Trials
	if trials == 0 {
		trials = 25
	}
	rng := rand.New(rand.NewSource(20_240_601))

	t.Run("feasibility+consistency", func(t *testing.T) {
		for trial := 0; trial < trials; trial++ {
			cfg := par.RandomConfig{
				Photos:     8 + rng.Intn(25),
				Subsets:    4 + rng.Intn(12),
				BudgetFrac: 0.1 + 0.8*rng.Float64(),
			}
			if trial%3 == 0 {
				cfg.RetainFrac = 0.1
			}
			if trial%4 == 0 {
				cfg.UniformCost = true
			}
			inst := par.Random(rng, cfg)
			sol, err := mk().Solve(context.Background(), inst)
			if err != nil {
				t.Fatalf("trial %d: Solve: %v", trial, err)
			}
			if !inst.Feasible(sol.Photos) {
				t.Fatalf("trial %d: infeasible solution %v (budget %.3f)", trial, sol.Photos, inst.Budget)
			}
			if got := par.Score(inst, sol.Photos); math.Abs(got-sol.Score) > 1e-9 {
				t.Fatalf("trial %d: reported score %.6f, true %.6f", trial, sol.Score, got)
			}
			var cost float64
			for _, p := range sol.Photos {
				cost += inst.Cost[p]
			}
			if math.Abs(cost-sol.Cost) > 1e-9 {
				t.Fatalf("trial %d: reported cost %.6f, true %.6f", trial, sol.Cost, cost)
			}
		}
	})

	t.Run("determinism", func(t *testing.T) {
		inst := par.Random(rng, par.RandomConfig{Photos: 20, Subsets: 10, BudgetFrac: 0.3})
		a, err := mk().Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk().Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Score-b.Score) > 1e-12 || len(a.Photos) != len(b.Photos) {
			t.Fatalf("non-deterministic: %.6f/%d photos vs %.6f/%d photos",
				a.Score, len(a.Photos), b.Score, len(b.Photos))
		}
		for i := range a.Photos {
			if a.Photos[i] != b.Photos[i] {
				t.Fatalf("non-deterministic selection order: %v vs %v", a.Photos, b.Photos)
			}
		}
	})

	if opts.Saturates {
		t.Run("saturation", func(t *testing.T) {
			inst := par.Random(rng, par.RandomConfig{Photos: 15, Subsets: 8, BudgetFrac: 1})
			inst.Budget = inst.TotalCost() * 1.001 // strictly everything fits
			if err := inst.Finalize(); err != nil {
				t.Fatal(err)
			}
			sol, err := mk().Solve(context.Background(), inst)
			if err != nil {
				t.Fatal(err)
			}
			if want := inst.TotalWeight(); math.Abs(sol.Score-want) > 1e-9 {
				t.Fatalf("saturating budget scored %.6f, want Σ W = %.6f", sol.Score, want)
			}
		})
	}

	t.Run("name", func(t *testing.T) {
		if mk().Name() == "" {
			t.Fatal("empty solver name")
		}
	})
}
