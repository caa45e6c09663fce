package par

import (
	"math/rand"
	"strings"
	"testing"
)

func TestCheckSimilarityValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if err := CheckSimilarity(rng, Figure1Instance(), 100); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	inst := Random(rng, RandomConfig{Photos: 20, Subsets: 10})
	if err := CheckSimilarity(rng, inst, 200); err != nil {
		t.Fatalf("random instance rejected: %v", err)
	}
}

type badSim struct {
	n         int
	diag      float64
	asym      bool
	outOfBand bool
}

func (b badSim) Len() int { return b.n }
func (b badSim) Sim(i, j int) float64 {
	if i == j {
		return b.diag
	}
	if b.outOfBand {
		return 1.5
	}
	if b.asym && i < j {
		return 0.2
	}
	return 0.8
}

func badInstance(sim Similarity) *Instance {
	inst := &Instance{
		Cost:   []float64{1, 1, 1},
		Budget: 3,
		Subsets: []Subset{{
			Name: "q", Weight: 1,
			Members:   []PhotoID{0, 1, 2},
			Relevance: []float64{0.4, 0.3, 0.3},
			Sim:       sim,
		}},
	}
	if err := inst.Finalize(); err != nil {
		panic(err)
	}
	return inst
}

func TestCheckSimilarityCatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		name, wantSub string
		sim           Similarity
	}{
		{"bad diagonal", "want 1", badSim{n: 3, diag: 0.9}},
		{"asymmetric", "asymmetric", badSim{n: 3, diag: 1, asym: true}},
		{"out of band", "outside [0,1]", badSim{n: 3, diag: 1, outOfBand: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckSimilarity(rng, badInstance(tc.sim), 200)
			if err == nil {
				t.Fatalf("defect not caught")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestCheckSimilarityNeighborConsistency(t *testing.T) {
	// A SparseSim whose rows were corrupted after construction.
	s := NewSparseSim(3)
	s.Add(0, 1, 0.5)
	s.sim[s.start[0]+1] = 0.9 // corrupt one direction only
	rng := rand.New(rand.NewSource(3))
	err := CheckSimilarity(rng, badInstance(s), 400)
	if err == nil {
		t.Fatal("corrupted neighbour list not caught")
	}
}
