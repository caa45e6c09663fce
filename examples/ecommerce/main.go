// Ecommerce walks the paper's motivating scenario end to end: a product
// catalog with landing pages derived from a query log, a fast image cache
// far smaller than the archive, PHOcus deciding which product photos live
// in the cache, and a serving simulation measuring what the selection is
// worth in cache hits and page latency against a random placement.
//
//	go run ./examples/ecommerce
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"phocus/internal/baselines"
	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/metrics"
	"phocus/internal/par"
	"phocus/internal/storage"
)

func main() {
	// A small EC-Fashion catalog: products, query-log-derived landing
	// pages, rendered product photos with realistic sizes.
	ds, err := dataset.GenerateEC(dataset.ECSpec{
		Domain: "Fashion", NumProducts: 800, NumQueries: 40, TopK: 30, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	inst := ds.Instance
	total := inst.TotalCost()
	fmt.Printf("catalog: %d photos across %d landing pages, %s\n",
		inst.NumPhotos(), len(inst.Subsets), metrics.FormatBytes(total))

	// The cache holds 8% of the archive — the small-budget regime the
	// paper highlights as practically important (Section 5.3).
	budget := 0.08 * total
	if err := ds.SetBudget(budget); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache:   %s (%.0f%% of archive)\n\n", metrics.FormatBytes(budget), 100*budget/total)

	var solver celf.Solver
	phocusSol, err := solver.Solve(context.Background(), inst)
	if err != nil {
		log.Fatal(err)
	}
	randSol, err := (&baselines.RandAdd{Seed: 99}).Solve(context.Background(), inst)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %10s %10s %10s %12s\n", "placement", "photos", "score", "hit-rate", "avg latency")
	for _, run := range []struct {
		name string
		sol  par.Solution
	}{{"PHOcus", phocusSol}, {"RAND", randSol}} {
		store := storage.New(storage.DefaultConfig(budget))
		if err := store.IngestInstance(inst); err != nil {
			log.Fatal(err)
		}
		if err := store.Apply(run.sol.Photos); err != nil {
			log.Fatal(err)
		}
		// Replay 200k page-image accesses drawn from the landing pages'
		// popularity and per-photo relevance.
		rng := rand.New(rand.NewSource(1))
		for _, p := range storage.AccessPattern(rng, inst, 200_000) {
			if _, err := store.Get(p); err != nil {
				log.Fatal(err)
			}
		}
		st := store.Stats()
		avg := st.SimulatedLatency / 200_000
		fmt.Printf("%-10s %10d %10.3f %9.1f%% %12v\n",
			run.name, len(run.sol.Photos), run.sol.Score, 100*st.HitRatio(), avg)
	}

	fmt.Println("\ntop landing pages and whether their best photo is cached:")
	cached := map[par.PhotoID]bool{}
	for _, p := range phocusSol.Photos {
		cached[p] = true
	}
	for qi := 0; qi < 5 && qi < len(inst.Subsets); qi++ {
		q := inst.Subsets[qi]
		best, bestRel := q.Members[0], 0.0
		for mi, p := range q.Members {
			if q.Relevance[mi] > bestRel {
				best, bestRel = p, q.Relevance[mi]
			}
		}
		mark := "archived"
		if cached[best] {
			mark = "cached"
		}
		fmt.Printf("  %-28q top photo #%d: %s\n", q.Name, best, mark)
	}
}
