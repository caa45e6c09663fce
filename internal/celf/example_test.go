package celf_test

import (
	"context"
	"fmt"

	"phocus/internal/celf"
	"phocus/internal/par"
)

// ExampleSolver solves the paper's running example at the worked-example
// budget and prints the retained photos in selection order.
func ExampleSolver() {
	inst := par.Figure1Instance()
	inst.Budget = 3.0
	if err := inst.Finalize(); err != nil {
		panic(err)
	}
	var s celf.Solver
	sol, err := s.Solve(context.Background(), inst)
	if err != nil {
		panic(err)
	}
	for _, p := range sol.Photos {
		fmt.Printf("keep p%d\n", p+1)
	}
	fmt.Printf("score %.2f, certified ≥ %.0f%% of optimal\n",
		sol.Score, 100*celf.CertifiedRatio(inst, sol))
	// Output:
	// keep p1
	// keep p6
	// keep p2
	// score 13.25, certified ≥ 96% of optimal
}
