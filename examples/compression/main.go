// Compression demonstrates the paper's Section 6 extension: instead of the
// binary keep-or-archive decision, photos may be kept compressed — lower
// quality, much lower cost. The example builds a small archive, solves it
// with and without the compression option across budgets, and prints the
// resulting keep/compress/archive plan.
//
//	go run ./examples/compression
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"phocus/internal/celf"
	"phocus/internal/compress"
	"phocus/internal/imagesim"
	"phocus/internal/metrics"
	"phocus/internal/par"
)

func main() {
	rng := rand.New(rand.NewSource(77))
	inst := par.Random(rng, par.RandomConfig{
		Photos: 40, Subsets: 18, BudgetFrac: 1, SimDensity: 0.7,
	})
	total := inst.TotalCost()

	// Calibrate the compression ladder from pixels: render a few sample
	// photos, measure how 2x and 4x box-downscaling changes their size
	// estimate and feature fidelity.
	cat := imagesim.NewCategoryModel(rng, "samples")
	var samples []*imagesim.Photo
	for i := 0; i < 8; i++ {
		samples = append(samples, cat.Generate(rng, i, imagesim.DefaultGenConfig()))
	}
	web, err := compress.CalibrateLevel("web(2x)", samples, 2, imagesim.DefaultEmbeddingConfig())
	if err != nil {
		log.Fatal(err)
	}
	// On these 32x32 synthetic rasters anything past 2x collapses feature
	// fidelity (full-resolution photos calibrate much gentler ladders), so
	// the aggressive thumbnail level keeps its assumed parameters.
	thumb := compress.DefaultLevels()[1]
	levels := []compress.Level{web, thumb}
	fmt.Printf("archive: %d photos, %s\n", inst.NumPhotos(), metrics.FormatBytes(total*1e6))
	fmt.Printf("levels:  %s (%.0f%% size, %.0f%% fidelity), %s (%.0f%% size, %.0f%% fidelity)\n\n",
		levels[0].Name, 100*levels[0].CostFactor, 100*levels[0].Quality,
		levels[1].Name, 100*levels[1].CostFactor, 100*levels[1].Quality)

	fmt.Printf("%-8s %14s %20s %8s %10s %9s\n",
		"budget", "keep/archive", "keep/compress/arch", "gain", "compressed", "archived")
	for _, frac := range []float64{0.1, 0.2, 0.35, 0.5} {
		inst.Budget = frac * total
		if err := inst.Finalize(); err != nil {
			log.Fatal(err)
		}
		var plain celf.Solver
		base, err := plain.Solve(context.Background(), inst)
		if err != nil {
			log.Fatal(err)
		}
		ex, err := compress.Expand(inst, levels)
		if err != nil {
			log.Fatal(err)
		}
		var comp celf.Solver
		csol, err := comp.Solve(context.Background(), ex.Instance)
		if err != nil {
			log.Fatal(err)
		}
		// A deployment solves both ways and keeps the better plan — the
		// expanded search space contains the plain one, but the greedy
		// heuristic can occasionally dip on it.
		if csol.Score < base.Score {
			csol = base
		}
		plan := ex.Interpret(csol)
		nComp := 0
		for _, c := range plan.Keep {
			if c.Level != nil {
				nComp++
			}
		}
		fmt.Printf("%7.0f%% %14.4f %20.4f %+7.1f%% %10d %9d\n",
			100*frac, base.Score, csol.Score,
			100*(csol.Score/base.Score-1), nComp, len(plan.Archive))
	}

	// Detailed plan at the tightest budget.
	inst.Budget = 0.1 * total
	if err = inst.Finalize(); err != nil {
		log.Fatal(err)
	}
	ex, err := compress.Expand(inst, levels)
	if err != nil {
		log.Fatal(err)
	}
	var solver celf.Solver
	sol, err := solver.Solve(context.Background(), ex.Instance)
	if err != nil {
		log.Fatal(err)
	}
	plan := ex.Interpret(sol)
	fmt.Printf("\nplan at 10%% budget (%s of %s):\n",
		metrics.FormatBytes(plan.Cost*1e6), metrics.FormatBytes(inst.Budget*1e6))
	for _, c := range plan.Keep {
		if c.Level == nil {
			fmt.Printf("  keep  #%-3d full quality\n", c.Photo)
		} else {
			fmt.Printf("  keep  #%-3d %s (%.0f%% fidelity)\n", c.Photo, c.Level.Name, 100*c.Level.Quality)
		}
	}
	fmt.Printf("  archive %d photos\n", len(plan.Archive))
}
