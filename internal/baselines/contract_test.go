package baselines

import (
	"testing"

	"phocus/internal/par"
	"phocus/internal/solvertest"
)

func TestRandAddContract(t *testing.T) {
	// RAND-A stops at the first photo that does not fit, so it does not
	// saturate even when everything would fit... except it does: with a
	// saturating budget every photo fits and the walk adds them all. Keep
	// the clause on.
	mk := func() par.Solver { return &RandAdd{Seed: 7} }
	solvertest.Contract(t, mk, solvertest.Options{Saturates: true})
	solvertest.CancelContract(t, mk)
}

func TestRandDeleteContract(t *testing.T) {
	mk := func() par.Solver { return &RandDelete{Seed: 7} }
	solvertest.Contract(t, mk, solvertest.Options{Saturates: true})
	solvertest.CancelContract(t, mk)
}

func TestGreedyNRContract(t *testing.T) {
	mk := func() par.Solver { return NewGreedyNR() }
	solvertest.Contract(t, mk, solvertest.Options{Saturates: true})
	solvertest.CancelContract(t, mk)
}

func TestGreedyNCSContract(t *testing.T) {
	global := func(p1, p2 par.PhotoID) float64 {
		if p1 == p2 {
			return 1
		}
		return 0.3
	}
	mk := func() par.Solver { return NewGreedyNCS(global) }
	solvertest.Contract(t, mk, solvertest.Options{Saturates: true})
	solvertest.CancelContract(t, mk)
}
