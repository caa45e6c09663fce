// Package streaming provides a sieve-streaming solver for PAR, in the
// spirit of the streaming submodular maximization literature the paper
// surveys in its related work (Badanidiyuru et al., KDD 2014), adapted to
// the knapsack constraint. It processes photos in a single sequential
// sweep, holding only the candidate solutions ("sieves") in memory — the
// regime for archives too large to solve with CELF's global priority queue.
//
// The algorithm guesses OPT on a geometric grid. For each guess v it keeps
// a sieve that admits a streamed photo iff it fits the remaining budget and
// its marginal gain per byte is at least v/(2B). The answer is the best
// sieve, backstopped by the best feasible singleton (which covers the case
// of one huge-value item that every density threshold rejects). A
// preliminary pass computes the singleton statistics that bound OPT:
// OPT ≤ B·maxDensity and OPT ≥ maxSingleton, so the grid has
// O(log(B·maxDensity/maxSingleton)/ε) sieves.
//
// The guarantee of this family of threshold algorithms under a knapsack
// constraint is a constant factor (1/3 − ε is the textbook bound for the
// plain variant); in practice it lands close to CELF, which the tests and
// the ablation benchmark quantify.
package streaming

import (
	"context"
	"fmt"
	"time"

	"phocus/internal/par"
)

// Solver is the sieve-streaming solver. It implements par.Solver, which is
// what lets the staged engine dispatch to it (phocus.AlgoStreaming) as the
// large-instance fallback.
type Solver struct {
	// Epsilon controls the OPT-guess grid density (default 0.2). Smaller
	// values mean more sieves: better quality, more memory and time.
	Epsilon float64
	// LastStats is populated by each Solve call.
	LastStats Stats
}

// Stats reports the work of a Solve call.
type Stats struct {
	Sieves  int           // number of parallel candidate solutions
	Elapsed time.Duration // wall-clock time
}

// Name implements par.Solver.
func (s *Solver) Name() string { return "Sieve-Streaming" }

// Solve streams the photos in ID order. The instance must be finalized.
// Both passes poll the context once per streamed photo, so a canceled
// context stops the sweep within one photo's work.
func (s *Solver) Solve(ctx context.Context, inst *par.Instance) (par.Solution, error) {
	if err := ctx.Err(); err != nil {
		return par.Solution{}, err
	}
	start := time.Now()
	eps := s.Epsilon
	if eps <= 0 {
		eps = 0.2
	}

	// Pass 1: singleton statistics over the retained-seeded base. These
	// bound OPT's headroom above the S0 baseline.
	base := par.NewEvaluator(inst)
	base.Seed()
	var bestSingle par.PhotoID = -1
	var bestSingleGain, maxDensity float64
	for p := 0; p < inst.NumPhotos(); p++ {
		if err := ctx.Err(); err != nil {
			return par.Solution{}, err
		}
		id := par.PhotoID(p)
		if base.Contains(id) || !base.Fits(id) {
			continue
		}
		g := base.Gain(id)
		if g > bestSingleGain {
			bestSingleGain, bestSingle = g, id
		}
		if d := g / inst.Cost[p]; d > maxDensity {
			maxDensity = d
		}
	}
	if bestSingle < 0 {
		// Nothing fits beyond S0.
		s.LastStats = Stats{Elapsed: time.Since(start)}
		return base.Solution(), nil
	}

	remainingBudget := inst.Budget - inst.RetainedCost()
	upper := remainingBudget * maxDensity // OPT's headroom is at most this
	lower := bestSingleGain
	if upper < lower {
		upper = lower
	}

	// Sieves on the geometric grid of OPT guesses.
	type sieve struct {
		threshold float64 // admission density: guess / (2B)
		eval      *par.Evaluator
	}
	var sieves []sieve
	for guess := lower; guess <= upper*(1+eps); guess *= 1 + eps {
		e := par.NewEvaluator(inst)
		e.Seed()
		sieves = append(sieves, sieve{threshold: guess / (2 * remainingBudget), eval: e})
	}
	if len(sieves) == 0 {
		return par.Solution{}, fmt.Errorf("streaming: empty guess grid (budget %g)", inst.Budget)
	}

	// Pass 2: the stream.
	for p := 0; p < inst.NumPhotos(); p++ {
		if err := ctx.Err(); err != nil {
			return par.Solution{}, err
		}
		id := par.PhotoID(p)
		for i := range sieves {
			e := sieves[i].eval
			if e.Contains(id) || !e.Fits(id) {
				continue
			}
			if g := e.Gain(id); g/inst.Cost[p] >= sieves[i].threshold {
				e.Add(id)
			}
		}
	}

	best := sieves[0].eval.Solution()
	for _, sv := range sieves[1:] {
		if sol := sv.eval.Solution(); sol.Score > best.Score {
			best = sol
		}
	}
	// Singleton backstop.
	single := base.Clone()
	single.Add(bestSingle)
	if sol := single.Solution(); sol.Score > best.Score {
		best = sol
	}

	s.LastStats = Stats{Sieves: len(sieves), Elapsed: time.Since(start)}
	if !inst.Feasible(best.Photos) {
		return par.Solution{}, fmt.Errorf("streaming: produced infeasible solution")
	}
	return best, nil
}
