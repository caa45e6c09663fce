package celf

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
)

// TestSolverWorkersEquivalence: the full Algorithm 1 solver (concurrent UC
// and CB) returns an identical solution and work counters at every
// GOMAXPROCS, and a seeded solve records identical pass logs, the same as
// the sequential passes GOMAXPROCS 1 takes.
func TestSolverWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		inst := par.Random(rng, par.RandomConfig{
			Photos: 50, Subsets: 20, BudgetFrac: 0.3,
		})
		var (
			seq, seqRec Solver
			seqSol      par.Solution
		)
		gomaxprocs.Each(t, func(workers int) {
			var s Solver
			sol, err := s.Solve(context.Background(), inst)
			if err != nil {
				t.Fatal(err)
			}
			rec := Solver{Trace: NewTrace(inst)}
			if _, err := rec.Solve(context.Background(), inst); err != nil {
				t.Fatal(err)
			}
			if workers == 1 { // the first level: the sequential reference
				seq, seqRec, seqSol = s, rec, sol
				return
			}
			if !reflect.DeepEqual(sol.Photos, seqSol.Photos) {
				t.Fatalf("trial %d GOMAXPROCS=%d: photos %v, sequential %v",
					trial, workers, sol.Photos, seqSol.Photos)
			}
			if sol.Score != seqSol.Score || sol.Cost != seqSol.Cost {
				t.Errorf("trial %d GOMAXPROCS=%d: score/cost differ", trial, workers)
			}
			if s.LastStats.Winner != seq.LastStats.Winner || s.LastStats.Selected != seq.LastStats.Selected {
				t.Errorf("trial %d GOMAXPROCS=%d: stats winner/selected differ", trial, workers)
			}
			if s.LastStats.GainEvals != seq.LastStats.GainEvals || s.LastStats.PQPops != seq.LastStats.PQPops {
				t.Errorf("trial %d GOMAXPROCS=%d: %d evals / %d pops, sequential %d / %d", trial, workers,
					s.LastStats.GainEvals, s.LastStats.PQPops, seq.LastStats.GainEvals, seq.LastStats.PQPops)
			}
			if !reflect.DeepEqual(rec.Trace.logs, seqRec.Trace.logs) {
				t.Errorf("trial %d GOMAXPROCS=%d: recorded pass logs diverge from the sequential ones", trial, workers)
			}
		})
	}
}
