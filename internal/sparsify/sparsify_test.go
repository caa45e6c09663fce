package sparsify

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phocus/internal/celf"
	"phocus/internal/embed"
	"phocus/internal/exact"
	"phocus/internal/par"
)

func TestExactFigure1(t *testing.T) {
	inst := par.Figure1Instance()
	res, err := Exact(inst, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 has 7 positive pairs; 5 of them are ≥ 0.6 (the two 0.4/0.5
	// pairs drop).
	if res.PairsBefore != 7 {
		t.Errorf("PairsBefore = %d, want 7", res.PairsBefore)
	}
	if res.PairsAfter != 5 {
		t.Errorf("PairsAfter = %d, want 5", res.PairsAfter)
	}
	s := res.Instance.Subsets[0].Sim
	if got := s.Sim(1, 2); got != 0 {
		t.Errorf("sparsified SIM(p2,p3) = %g, want 0 (was 0.5 < τ)", got)
	}
	if got := s.Sim(0, 2); got != 0.8 {
		t.Errorf("sparsified SIM(p1,p3) = %g, want 0.8 kept", got)
	}
	if got := s.Sim(2, 2); got != 1 {
		t.Errorf("diagonal must stay 1, got %g", got)
	}
}

// Property: the sparsified objective never exceeds the original for any
// solution, and τ=0 preserves it exactly.
func TestSparsifiedScoreDominatedQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := par.Random(rng, par.RandomConfig{Photos: 12, Subsets: 6})
		res0, err := Exact(inst, 0)
		if err != nil {
			return false
		}
		resT, err := Exact(inst, 0.5)
		if err != nil {
			return false
		}
		var s []par.PhotoID
		for p := 0; p < 12; p++ {
			if rng.Intn(2) == 0 {
				s = append(s, par.PhotoID(p))
			}
		}
		orig := par.Score(inst, s)
		if math.Abs(par.Score(res0.Instance, s)-orig) > 1e-9 {
			return false
		}
		return par.Score(resT.Instance, s) <= orig+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestWithLSHMatchesExactOnCosineSim(t *testing.T) {
	// Build an instance whose SIM is plain contextual cosine so LSH's
	// candidate threshold matches the verification threshold.
	rng := rand.New(rand.NewSource(6))
	const dim = 48
	const n = 60
	vectors := make([]embed.Vector, n)
	// Half the photos sit in 10 tight clusters; the rest are random.
	for c := 0; c < 10; c++ {
		proto := embed.RandomUnit(rng, dim)
		for k := 0; k < 3; k++ {
			vectors[c*3+k] = embed.Perturb(rng, proto, 0.03)
		}
	}
	for p := 30; p < n; p++ {
		vectors[p] = embed.RandomUnit(rng, dim)
	}
	inst := &par.Instance{Cost: make([]float64, n)}
	for p := range inst.Cost {
		inst.Cost[p] = 1
	}
	inst.Budget = 10
	ctx := embed.UniformContext(dim)
	var ctxVectors [][]embed.Vector
	for qi := 0; qi < 6; qi++ {
		size := 10 + rng.Intn(10)
		perm := rng.Perm(n)[:size]
		members := make([]par.PhotoID, size)
		vs := make([]embed.Vector, size)
		rel := make([]float64, size)
		for i, p := range perm {
			members[i] = par.PhotoID(p)
			vs[i] = vectors[p]
			rel[i] = 1 / float64(size)
		}
		inst.Subsets = append(inst.Subsets, par.Subset{
			Name: "q", Weight: 1, Members: members, Relevance: rel,
			Sim: embed.ContextualSim(vs, ctx),
		})
		ctxVectors = append(ctxVectors, vs)
	}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}

	const tau = 0.85
	exactRes, err := Exact(inst, tau)
	if err != nil {
		t.Fatal(err)
	}
	lshRes, err := WithLSH(rng, inst, ctxVectors, tau)
	if err != nil {
		t.Fatal(err)
	}
	if exactRes.PairsAfter == 0 {
		t.Fatal("setup produced no ≥τ pairs")
	}
	recall := float64(lshRes.PairsAfter) / float64(exactRes.PairsAfter)
	if recall < 0.85 {
		t.Errorf("LSH recovered %.0f%% of ≥τ pairs, want ≥ 85%%", recall*100)
	}
	if lshRes.PairsAfter > exactRes.PairsAfter {
		t.Errorf("LSH produced %d pairs, more than the %d true ≥τ pairs", lshRes.PairsAfter, exactRes.PairsAfter)
	}
	// LSH result is a valid sparsification: scores never exceed the exact
	// sparsification's.
	var sol []par.PhotoID
	for p := 0; p < n; p += 7 {
		sol = append(sol, par.PhotoID(p))
	}
	if par.Score(lshRes.Instance, sol) > par.Score(exactRes.Instance, sol)+1e-9 {
		t.Error("LSH sparsification scored above exact sparsification")
	}
}

func TestWithLSHShapeErrors(t *testing.T) {
	inst := par.Figure1Instance()
	rng := rand.New(rand.NewSource(1))
	if _, err := WithLSH(rng, inst, nil, 0.5); err == nil {
		t.Error("expected error for missing vector groups")
	}
	bad := make([][]embed.Vector, len(inst.Subsets))
	if _, err := WithLSH(rng, inst, bad, 0.5); err == nil {
		t.Error("expected error for wrong group sizes")
	}
}

// Theorem 4.8: solving the τ-sparsified instance loses at most a
// 1/(1+1/α) factor against the true optimum. Verify end to end on small
// instances with the exact solver.
func TestBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 9, Subsets: 5, BudgetFrac: 0.4})
		tau := 0.3 + 0.4*rng.Float64()
		rep := Bound(inst, tau)
		if rep.Alpha < 0 || rep.Alpha > 1+1e-9 {
			t.Fatalf("alpha = %g outside [0,1]", rep.Alpha)
		}
		if rep.Alpha == 0 {
			continue // bound is vacuous
		}
		res, err := Exact(inst, tau)
		if err != nil {
			t.Fatal(err)
		}
		var ex exact.Solver
		origOpt, err := ex.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		var ex2 exact.Solver
		tauOpt, err := ex2.Solve(context.Background(), res.Instance)
		if err != nil {
			t.Fatal(err)
		}
		// F(O_τ) under the ORIGINAL objective is what the theorem bounds;
		// evaluate the sparsified optimum's photos on the original instance.
		val := par.Score(inst, tauOpt.Photos)
		if val < rep.Factor*origOpt.Score-1e-9 {
			t.Errorf("trial %d: sparsified optimum %.4f below guaranteed %.4f·OPT(%.4f) at τ=%.2f (α=%.3f)",
				trial, val, rep.Factor, origOpt.Score, tau, rep.Alpha)
		}
	}
}

func TestBoundEmptyCoverage(t *testing.T) {
	// Budget too small to cover anything: α = 0, factor 0.
	inst := par.Figure1Instance()
	inst.Budget = 0.1
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	rep := Bound(inst, 0.5)
	if rep.Alpha != 0 || rep.Factor != 0 {
		t.Errorf("expected vacuous bound, got α=%g factor=%g", rep.Alpha, rep.Factor)
	}
}

// Sparsification should barely hurt the CELF solution quality on clustered
// data (Figure 5e's observation: ≤ 5% loss).
func TestSparsifiedSolveQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inst := par.Random(rng, par.RandomConfig{Photos: 60, Subsets: 25, BudgetFrac: 0.3, SimDensity: 0.8})
	var s1 celf.Solver
	full, err := s1.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(inst, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var s2 celf.Solver
	sparse, err := s2.Solve(context.Background(), res.Instance)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both under the true objective.
	fullScore := par.Score(inst, full.Photos)
	sparseScore := par.Score(inst, sparse.Photos)
	if sparseScore < 0.85*fullScore {
		t.Errorf("sparsified solve lost %.0f%% quality (%.3f vs %.3f)",
			100*(1-sparseScore/fullScore), sparseScore, fullScore)
	}
}

// randomEmbeddedInstance builds an instance whose SIM is contextual cosine
// over random unit vectors (half clustered), returning the per-subset
// contextualized vectors WithLSH needs.
func randomEmbeddedInstance(rng *rand.Rand, n, subsets int) (*par.Instance, [][]embed.Vector) {
	const dim = 32
	vectors := make([]embed.Vector, n)
	for c := 0; c < n/6; c++ {
		proto := embed.RandomUnit(rng, dim)
		for k := 0; k < 3; k++ {
			vectors[c*3+k] = embed.Perturb(rng, proto, 0.03)
		}
	}
	for p := (n / 6) * 3; p < n; p++ {
		vectors[p] = embed.RandomUnit(rng, dim)
	}
	inst := &par.Instance{Cost: make([]float64, n), Budget: float64(n) / 4}
	for p := range inst.Cost {
		inst.Cost[p] = 1
	}
	ctx := embed.UniformContext(dim)
	var ctxVectors [][]embed.Vector
	for qi := 0; qi < subsets; qi++ {
		size := 8 + rng.Intn(8)
		perm := rng.Perm(n)[:size]
		members := make([]par.PhotoID, size)
		vs := make([]embed.Vector, size)
		rel := make([]float64, size)
		for i, p := range perm {
			members[i] = par.PhotoID(p)
			vs[i] = vectors[p]
			rel[i] = 1 / float64(size)
		}
		inst.Subsets = append(inst.Subsets, par.Subset{
			Name: fmt.Sprintf("q%d", qi), Weight: 1, Members: members,
			Relevance: rel, Sim: embed.ContextualSim(vs, ctx),
		})
		ctxVectors = append(ctxVectors, vs)
	}
	if err := inst.Finalize(); err != nil {
		panic(err)
	}
	return inst, ctxVectors
}
