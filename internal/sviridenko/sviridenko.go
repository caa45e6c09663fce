// Package sviridenko implements the partial-enumeration algorithm of
// Sviridenko ("A note on maximizing a submodular set function subject to a
// knapsack constraint", Oper. Res. Lett. 2004), the optimal PTIME
// (1−1/e)-approximation the paper invokes in Theorem 4.6.
//
// The algorithm enumerates every feasible seed set of at most D photos
// (D = 3 in the original analysis), completes each seed greedily by
// gain-per-cost while skipping photos that do not fit, and returns the best
// completion. With D = 3 the approximation factor is exactly 1−1/e, matching
// the hardness bound of Theorem 3.4; the price is Ω(n⁴) gain evaluations,
// which is why the paper (and this repository) use it as the quality
// reference and CELF as the production solver.
package sviridenko

import (
	"context"
	"time"

	"phocus/internal/par"
)

// Solver runs the partial-enumeration algorithm. It implements par.Solver.
type Solver struct {
	// Depth is the enumeration depth D. 0 means the canonical 3. Lower
	// depths trade the guarantee for speed (D=1 is "greedy with best
	// singleton backstop", already a (1−1/e)/2-approximation).
	Depth int
	// LastStats is populated by each Solve call.
	LastStats Stats
}

// Stats reports the work done by a Solve call.
type Stats struct {
	Seeds   int64         // seed sets enumerated
	Elapsed time.Duration // wall-clock time
}

// Name implements par.Solver.
func (s *Solver) Name() string { return "Sviridenko" }

// Solve returns a (1−1/e)-approximate solution (at Depth ≥ 3). The context
// is checked once per enumeration step (each seed extension and each greedy
// selection round), so a canceled context stops the Ω(n⁴) enumeration
// promptly and the context's error is returned unwrapped.
func (s *Solver) Solve(ctx context.Context, inst *par.Instance) (par.Solution, error) {
	start := time.Now()
	depth := s.Depth
	if depth <= 0 {
		depth = 3
	}
	s.LastStats = Stats{}

	base := par.NewEvaluator(inst)
	base.Seed()

	var free []par.PhotoID
	for p := 0; p < inst.NumPhotos(); p++ {
		id := par.PhotoID(p)
		if !base.Contains(id) {
			free = append(free, id)
		}
	}

	best := base.Solution() // the S0-only solution is always feasible

	// Enumerate seeds of size 1..depth (the empty seed's greedy completion
	// is dominated by size-1 seeds starting from the greedy's first pick,
	// but we run it too so Depth=0 configurations degrade gracefully).
	if err := s.enumerate(ctx, inst, base, free, depth, &best); err != nil {
		return par.Solution{}, err
	}

	// Also complete the empty seed.
	e := base.Clone()
	if err := s.greedyComplete(ctx, inst, e, free); err != nil {
		return par.Solution{}, err
	}
	if sol := e.Solution(); sol.Score > best.Score {
		best = sol
	}

	s.LastStats.Elapsed = time.Since(start)
	return best, nil
}

// enumerate recursively extends the seed set in e with photos from free up
// to the remaining depth, greedily completing every feasible seed.
func (s *Solver) enumerate(ctx context.Context, inst *par.Instance, e *par.Evaluator, free []par.PhotoID, depth int, best *par.Solution) error {
	if depth == 0 {
		return nil
	}
	for i, p := range free {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !e.Fits(p) {
			continue
		}
		s.LastStats.Seeds++
		ext := e.Clone()
		ext.Add(p)
		completed := ext.Clone()
		if err := s.greedyComplete(ctx, inst, completed, free); err != nil {
			return err
		}
		if sol := completed.Solution(); sol.Score > best.Score {
			*best = sol
		}
		if err := s.enumerate(ctx, inst, ext, free[i+1:], depth-1, best); err != nil {
			return err
		}
	}
	return nil
}

// greedyComplete extends e by repeatedly adding the feasible photo with the
// highest gain-per-cost until nothing fits.
func (s *Solver) greedyComplete(ctx context.Context, inst *par.Instance, e *par.Evaluator, candidates []par.PhotoID) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		best := par.PhotoID(-1)
		var bestKey float64
		for _, p := range candidates {
			if e.Contains(p) || !e.Fits(p) {
				continue
			}
			key := e.Gain(p) / inst.Cost[p]
			if best < 0 || key > bestKey {
				best, bestKey = p, key
			}
		}
		if best < 0 {
			return nil
		}
		e.Add(best)
	}
}
