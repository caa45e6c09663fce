package celf

import (
	"testing"

	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
	"phocus/internal/solvertest"
)

func TestSolverContract(t *testing.T) {
	solvertest.Contract(t, func() par.Solver { return &Solver{} }, solvertest.Options{Saturates: true})
}

func TestContextContract(t *testing.T) {
	solvertest.CancelContract(t, func() par.Solver { return &Solver{} })
}

// TestContextContractSequential covers the GOMAXPROCS 1 path, whose cancel
// check sits in the lazy-greedy loop rather than the concurrent harness.
func TestContextContractSequential(t *testing.T) {
	gomaxprocs.Set(t, 1)
	solvertest.CancelContract(t, func() par.Solver { return &Solver{} })
}
