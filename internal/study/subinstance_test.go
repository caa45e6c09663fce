package study

import (
	"context"
	"math/rand"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/par"
)

func TestSubInstanceBySubsetsPreservesStructure(t *testing.T) {
	ds, err := dataset.GenerateEC(dataset.ECSpec{
		Domain: "Fashion", NumProducts: 400, NumQueries: 25, TopK: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	sub, orig := SubInstanceBySubsets(rng, ds.Instance, 100, 0.2)
	if sub == nil {
		t.Fatal("nil sub-instance")
	}
	if sub.NumPhotos() < 100 {
		t.Fatalf("collected only %d photos", sub.NumPhotos())
	}
	if len(orig) != sub.NumPhotos() {
		t.Fatalf("mapping has %d entries for %d photos", len(orig), sub.NumPhotos())
	}
	// Whole-subset sampling must keep at least one subset complete, so the
	// average surviving-subset size stays well above 1 (the failure mode of
	// uniform sampling).
	var totalMembers int
	maxSize := 0
	for _, q := range sub.Subsets {
		totalMembers += len(q.Members)
		if len(q.Members) > maxSize {
			maxSize = len(q.Members)
		}
	}
	avg := float64(totalMembers) / float64(len(sub.Subsets))
	if avg < 3 {
		t.Errorf("average subset size %.1f; subset structure shredded", avg)
	}
	if maxSize < 10 {
		t.Errorf("largest surviving subset has %d members", maxSize)
	}
	// Costs flow through the mapping.
	for newID, oldID := range orig {
		if sub.Cost[newID] != ds.Instance.Cost[oldID] {
			t.Fatalf("cost mismatch at %d", newID)
		}
	}
}

func TestSubInstanceBySubsetsEmptyInstance(t *testing.T) {
	inst := &par.Instance{Cost: []float64{1}, Budget: 1}
	rng := rand.New(rand.NewSource(1))
	if sub, _ := SubInstanceBySubsets(rng, inst, 10, 0.5); sub != nil {
		t.Error("expected nil for instance without subsets")
	}
}

func TestFixedFactory(t *testing.T) {
	inst := par.Figure1Instance()
	var want par.Solver = &stubSolver{}
	if got := Fixed(want)(inst, nil); got != want {
		t.Error("Fixed did not return the wrapped solver")
	}
}

type stubSolver struct{}

func (stubSolver) Name() string { return "stub" }
func (stubSolver) Solve(context.Context, *par.Instance) (par.Solution, error) {
	return par.Solution{}, nil
}
