// Paperexample reproduces the paper's running example end to end: the
// Figure 1 instance (seven photos, four query-derived subsets), the GFL
// formulation of Figure 2, and the step-by-step lazy-greedy trace of
// Figure 3, then solves the instance at several budgets with every
// algorithm in the repository.
//
//	go run ./examples/paperexample
package main

import (
	"context"
	"fmt"
	"log"

	"phocus/internal/celf"
	"phocus/internal/exact"
	"phocus/internal/gfl"
	"phocus/internal/par"
	"phocus/internal/sviridenko"
)

// tracePrinter prints the lazy-greedy events the way Figure 3 narrates
// them: recomputations of stale δ_p values and selections of p*.
type tracePrinter struct{}

func (tracePrinter) Recomputed(p par.PhotoID, gain float64) {
	fmt.Printf("  recompute δ_p%d = %.2f (curr ← true)\n", p+1, gain)
}

func (tracePrinter) Selected(p par.PhotoID, gain float64) {
	fmt.Printf("  p* = p%d selected (δ = %.2f)\n", p+1, gain)
}

func main() {
	inst := par.Figure1Instance()

	fmt.Println("== Figure 1: input ==")
	for qi, q := range inst.Subsets {
		fmt.Printf("q%d %-10q w=%g members=%v relevance=%v\n",
			qi+1, q.Name, q.Weight, q.Members, q.Relevance)
	}

	fmt.Println("\n== Figure 2: GFL formulation ==")
	g := gfl.FromPAR(inst)
	fmt.Printf("|T_L| = %d photos, |T_R| = %d (subset, photo) pairs, %d edges, W_R = %g\n",
		len(g.LeftWeights), len(g.Right), g.NumEdges(), g.TotalRightWeight())

	fmt.Println("\n== Figure 3: initial marginal gains δ_p ==")
	e := par.NewEvaluator(inst)
	for p := 0; p < inst.NumPhotos(); p++ {
		fmt.Printf("δ_p%d = %.2f\n", p+1, e.Gain(par.PhotoID(p)))
	}

	fmt.Println("\n== Figure 3: lazy-greedy trace at budget 3.0 MB ==")
	inst.Budget = 3.0
	if err := inst.Finalize(); err != nil {
		log.Fatal(err)
	}
	sol, stats, err := celf.LazyGreedy(context.Background(), inst, celf.UC, tracePrinter{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("score %.2f, cost %.1f MB, %d gain evaluations, %d queue pops\n",
		sol.Score, sol.Cost, stats.GainEvals, stats.PQPops)

	fmt.Println("\n== all solvers across budgets ==")
	solvers := []par.Solver{&celf.Solver{}, &sviridenko.Solver{}, &exact.Solver{}}
	fmt.Printf("%-12s", "budget(MB)")
	for _, s := range solvers {
		fmt.Printf("%14s", s.Name())
	}
	fmt.Println()
	for _, budget := range []float64{1.5, 2.0, 3.0, 5.0, 8.2} {
		inst.Budget = budget
		if err := inst.Finalize(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12.1f", budget)
		for _, s := range solvers {
			sol, err := s.Solve(context.Background(), inst)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%14.4f", sol.Score)
		}
		fmt.Println()
	}
}
