package streaming

import (
	"testing"

	"phocus/internal/par"
	"phocus/internal/solvertest"
)

func TestSolverContract(t *testing.T) {
	// Streaming legitimately skips photos below every sieve's density
	// threshold, so the saturation clause does not apply.
	solvertest.Contract(t, func() par.Solver { return &Solver{} }, solvertest.Options{})
}

func TestSolverContextContract(t *testing.T) {
	solvertest.CancelContract(t, func() par.Solver { return &Solver{} })
}
