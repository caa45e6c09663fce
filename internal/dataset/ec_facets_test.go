package dataset

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"phocus/internal/baselines"
	"phocus/internal/celf"
	"phocus/internal/embed"
)

func TestQueryContextBoundFacets(t *testing.T) {
	voc := domainVocab["Fashion"]
	rng := rand.New(rand.NewSource(1))
	dim := 3*facetDim + 10
	block := func(mask embed.Vector, b int) float64 { return mask[b*facetDim] }

	typeQ := queryContext(rng, "shirt", voc, dim)
	if block(typeQ.Mask, 0) != boundFacetWeight {
		t.Errorf("type facet not damped for type query: %g", block(typeQ.Mask, 0))
	}
	if block(typeQ.Mask, 1) == boundFacetWeight || block(typeQ.Mask, 2) == boundFacetWeight {
		t.Error("free facets damped for type query")
	}

	full := queryContext(rng, "adidas black shirt", voc, dim)
	for b := 0; b < 3; b++ {
		if block(full.Mask, b) != boundFacetWeight {
			t.Errorf("facet %d not damped for fully bound query", b)
		}
	}
}

func TestQueryContextBlockConstancy(t *testing.T) {
	voc := domainVocab["Electronics"]
	rng := rand.New(rand.NewSource(2))
	dim := 3*facetDim + 7
	ctx := queryContext(rng, "samsung", voc, dim)
	// Every weight within a block must be equal.
	for b := 0; b < 3; b++ {
		w := ctx.Mask[b*facetDim]
		for i := b * facetDim; i < (b+1)*facetDim; i++ {
			if ctx.Mask[i] != w {
				t.Fatalf("facet block %d not constant", b)
			}
		}
	}
	visW := ctx.Mask[3*facetDim]
	for i := 3 * facetDim; i < dim; i++ {
		if ctx.Mask[i] != visW {
			t.Fatal("visual block not constant")
		}
	}
}

// The headline EC property after the facet redesign: at a small budget the
// algorithm ranking is PHOcus > Greedy-NCS > Greedy-NR > RAND, with a real
// gap between PHOcus and Greedy-NCS (context matters) and a bigger one to
// Greedy-NR (similarity matters).
func TestECAlgorithmSeparation(t *testing.T) {
	ds, err := GenerateEC(ECSpec{Domain: "Fashion", NumProducts: 2000, NumQueries: 40, TopK: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	inst := ds.Instance
	inst.Budget = 0.05 * inst.TotalCost()
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var phs celf.Solver
	ph, err := phs.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	ncs, err := baselines.NewGreedyNCS(ds.GlobalSim).Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := baselines.NewGreedyNR().Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	rand, err := (&baselines.RandAdd{Seed: 5}).Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if !(ph.Score > ncs.Score && ncs.Score > nr.Score && nr.Score > rand.Score) {
		t.Fatalf("ranking broken: PHOcus=%.4f NCS=%.4f NR=%.4f RAND=%.4f",
			ph.Score, ncs.Score, nr.Score, rand.Score)
	}
	if ncs.Score > 0.99*ph.Score {
		t.Errorf("Greedy-NCS within %.2f%% of PHOcus; contextualization has no bite",
			100*(1-ncs.Score/ph.Score))
	}
	if nr.Score > 0.9*ph.Score {
		t.Errorf("Greedy-NR at %.2f of PHOcus; similarity model has no bite", nr.Score/ph.Score)
	}
}

func TestECBroadQueriesExist(t *testing.T) {
	ds, err := GenerateEC(ECSpec{Domain: "Fashion", NumProducts: 300, NumQueries: 40, TopK: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	broad := 0
	for _, q := range ds.Instance.Subsets {
		if !strings.Contains(q.Name, " ") && !isType(q.Name) {
			broad++ // bare brand or attribute query
		}
	}
	if broad == 0 {
		t.Error("no broad (single-term brand/attr) landing pages generated")
	}
}

func isType(q string) bool {
	for _, ty := range domainVocab["Fashion"].types {
		if strings.EqualFold(ty, q) {
			return true
		}
	}
	return false
}
