package sviridenko

import (
	"testing"

	"phocus/internal/par"
	"phocus/internal/solvertest"
)

func TestSolverContract(t *testing.T) {
	solvertest.Contract(t, func() par.Solver { return &Solver{} }, solvertest.Options{Saturates: true, Trials: 10})
}

func TestContextContract(t *testing.T) {
	solvertest.CancelContract(t, func() par.Solver { return &Solver{} })
}
