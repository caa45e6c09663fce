package celf

import (
	"math/rand"
	"reflect"
	"testing"

	"phocus/internal/par"
)

// selectionLog records Selected events only — the part of the observer
// stream that must be identical between sequential and batched schedules
// (Recomputed events legitimately differ: batches recompute extra entries).
type selectionLog struct {
	photos []par.PhotoID
	gains  []float64
}

func (l *selectionLog) Recomputed(par.PhotoID, float64) {}
func (l *selectionLog) Selected(p par.PhotoID, gain float64) {
	l.photos = append(l.photos, p)
	l.gains = append(l.gains, gain)
}

// TestLazyGreedyWorkersEquivalence: the batched recompute schedule must
// select exactly the photos the classic sequential schedule selects — same
// set, same order, same gains — for both variants and several batch sizes. A
// batch of 0 or less is the classic schedule, counters included.
func TestLazyGreedyWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		inst := par.Random(rng, par.RandomConfig{
			Photos: 60, Subsets: 25, BudgetFrac: 0.2 + 0.15*rng.Float64(),
		})
		for _, variant := range []Variant{UC, CB} {
			var seqLog selectionLog
			seqSol, seqStats, err := LazyGreedyWorkers(inst, variant, 1, &seqLog)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{0, -1} {
				_, stats, err := LazyGreedyWorkers(inst, variant, batch, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stats.GainEvals != seqStats.GainEvals || stats.PQPops != seqStats.PQPops {
					t.Errorf("trial %d %v batch=%d: %d evals / %d pops, batch 1 %d / %d",
						trial, variant, batch, stats.GainEvals, stats.PQPops, seqStats.GainEvals, seqStats.PQPops)
				}
			}
			for _, batch := range []int{2, 8} {
				var batchLog selectionLog
				sol, stats, err := LazyGreedyWorkers(inst, variant, batch, &batchLog)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sol.Photos, seqSol.Photos) {
					t.Fatalf("trial %d %v batch=%d: photos %v, sequential %v",
						trial, variant, batch, sol.Photos, seqSol.Photos)
				}
				if sol.Score != seqSol.Score || sol.Cost != seqSol.Cost {
					t.Errorf("trial %d %v batch=%d: score/cost %.17g/%.17g, sequential %.17g/%.17g",
						trial, variant, batch, sol.Score, sol.Cost, seqSol.Score, seqSol.Cost)
				}
				if stats.Selected != seqStats.Selected {
					t.Errorf("trial %d %v batch=%d: Selected = %d, sequential %d",
						trial, variant, batch, stats.Selected, seqStats.Selected)
				}
				if !reflect.DeepEqual(batchLog.photos, seqLog.photos) ||
					!reflect.DeepEqual(batchLog.gains, seqLog.gains) {
					t.Errorf("trial %d %v batch=%d: selection events diverge", trial, variant, batch)
				}
			}
		}
	}
}

// TestSolverWorkersEquivalence: the full Algorithm 1 solver (concurrent UC
// and CB) returns an identical solution and work counters for every worker
// count, and the buffered observer replay preserves the UC-then-CB selection
// order.
func TestSolverWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		inst := par.Random(rng, par.RandomConfig{
			Photos: 50, Subsets: 20, BudgetFrac: 0.3,
		})
		var seqLog selectionLog
		seq := Solver{Workers: 1, Observer: &seqLog}
		seqSol, err := seq.Solve(inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			var log selectionLog
			s := Solver{Workers: workers, Observer: &log}
			sol, err := s.Solve(inst)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sol.Photos, seqSol.Photos) {
				t.Fatalf("trial %d workers=%d: photos %v, sequential %v",
					trial, workers, sol.Photos, seqSol.Photos)
			}
			if sol.Score != seqSol.Score || sol.Cost != seqSol.Cost {
				t.Errorf("trial %d workers=%d: score/cost differ", trial, workers)
			}
			if s.LastStats.Winner != seq.LastStats.Winner || s.LastStats.Selected != seq.LastStats.Selected {
				t.Errorf("trial %d workers=%d: stats winner/selected differ", trial, workers)
			}
			if s.LastStats.GainEvals != seq.LastStats.GainEvals || s.LastStats.PQPops != seq.LastStats.PQPops {
				t.Errorf("trial %d workers=%d: %d evals / %d pops, sequential %d / %d", trial, workers,
					s.LastStats.GainEvals, s.LastStats.PQPops, seq.LastStats.GainEvals, seq.LastStats.PQPops)
			}
			if !reflect.DeepEqual(log.photos, seqLog.photos) {
				t.Errorf("trial %d workers=%d: replayed selection order diverges", trial, workers)
			}
		}
	}
}
