// Package baselines implements the four comparison algorithms of Section
// 5.2: the two random strategies (RAND-A, RAND-D) and the two iterative
// greedy strategies that select with an impoverished objective (Greedy-NR
// ignores similarity altogether; Greedy-NCS uses a single non-contextual
// similarity for all subsets). The greedy baselines SELECT with their
// surrogate objective but are always EVALUATED with the true objective —
// exactly the experimental protocol of the paper. Every baseline polls its
// context once per selection (RAND-D once per deletion) and returns the
// context's error once it is done.
package baselines

import (
	"context"
	"fmt"
	"math/rand"

	"phocus/internal/celf"
	"phocus/internal/par"
)

// RandAdd is RAND-A: starting from S0, repeatedly pick a uniformly random
// remaining photo and add it, stopping the first time the picked photo does
// not fit the budget (the paper's "stops when the budget limit is met").
type RandAdd struct {
	Seed int64
}

// Name implements par.Solver.
func (r *RandAdd) Name() string { return "RAND-A" }

// Solve implements par.Solver.
func (r *RandAdd) Solve(ctx context.Context, inst *par.Instance) (par.Solution, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	e := par.NewEvaluator(inst)
	e.Seed()
	perm := rng.Perm(inst.NumPhotos())
	for _, p := range perm {
		if err := ctx.Err(); err != nil {
			return par.Solution{}, err
		}
		id := par.PhotoID(p)
		if e.Contains(id) {
			continue
		}
		if !e.Fits(id) {
			break
		}
		e.Add(id)
	}
	return e.Solution(), nil
}

// RandDelete is RAND-D: starting from the full archive, repeatedly delete a
// uniformly random non-retained photo until the remainder fits the budget.
type RandDelete struct {
	Seed int64
}

// Name implements par.Solver.
func (r *RandDelete) Name() string { return "RAND-D" }

// Solve implements par.Solver.
func (r *RandDelete) Solve(ctx context.Context, inst *par.Instance) (par.Solution, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	n := inst.NumPhotos()
	kept := make([]bool, n)
	cost := 0.0
	for p := 0; p < n; p++ {
		kept[p] = true
		cost += inst.Cost[p]
	}
	// Deletable photos in random order.
	var order []par.PhotoID
	for _, p := range rng.Perm(n) {
		if !inst.IsRetained(par.PhotoID(p)) {
			order = append(order, par.PhotoID(p))
		}
	}
	// Tolerate the float error accumulated by summing costs, consistently
	// with par.Instance.Feasible.
	slack := 1e-9 * (1 + inst.Budget)
	for _, p := range order {
		if err := ctx.Err(); err != nil {
			return par.Solution{}, err
		}
		if cost <= inst.Budget+slack {
			break
		}
		kept[p] = false
		cost -= inst.Cost[p]
	}
	if cost > inst.Budget+slack {
		return par.Solution{}, fmt.Errorf("baselines: RAND-D cannot reach budget (retained set too large)")
	}
	var photos []par.PhotoID
	for p := 0; p < n; p++ {
		if kept[p] {
			photos = append(photos, par.PhotoID(p))
		}
	}
	return par.Solution{
		Photos: photos,
		Score:  par.ScoreFast(inst, photos),
		Cost:   cost,
	}, nil
}

// SurrogateGreedy selects photos by running the lazy greedy (UC variant, as
// the paper describes plain "iterative greedy" baselines) on a surrogate
// instance, then reports the selection scored under the TRUE objective.
type SurrogateGreedy struct {
	// BaselineName is the reported algorithm name.
	BaselineName string
	// Surrogate rewrites the instance the greedy selects with.
	Surrogate func(*par.Instance) (*par.Instance, error)
}

// Name implements par.Solver.
func (s *SurrogateGreedy) Name() string { return s.BaselineName }

// Solve implements par.Solver.
func (s *SurrogateGreedy) Solve(ctx context.Context, inst *par.Instance) (par.Solution, error) {
	sur, err := s.Surrogate(inst)
	if err != nil {
		return par.Solution{}, fmt.Errorf("baselines: building %s surrogate: %w", s.BaselineName, err)
	}
	sol, _, err := celf.LazyGreedy(ctx, sur, celf.UC, nil)
	if err != nil {
		return par.Solution{}, err
	}
	sol.Score = par.ScoreFast(inst, sol.Photos)
	return sol, nil
}

// NewGreedyNR returns the Greedy-NR baseline: the surrogate sets
// SIM(q,p,p') = 1 for every pair within each subset, so the greedy behaves
// like weighted maximum coverage and never accounts for partial redundancy.
func NewGreedyNR() *SurrogateGreedy {
	return &SurrogateGreedy{
		BaselineName: "Greedy-NR",
		Surrogate: func(inst *par.Instance) (*par.Instance, error) {
			out := &par.Instance{
				Cost:     inst.Cost,
				Retained: inst.Retained,
				Budget:   inst.Budget,
				Subsets:  make([]par.Subset, len(inst.Subsets)),
			}
			for qi := range inst.Subsets {
				q := inst.Subsets[qi]
				q.Sim = par.UniformSim{N: len(q.Members)}
				out.Subsets[qi] = q
			}
			if err := out.Finalize(); err != nil {
				return nil, err
			}
			return out, nil
		},
	}
}

// NewGreedyNCS returns the Greedy-NCS baseline: the surrogate replaces
// every subset's contextual similarity with the single global (photo-level,
// context-free) similarity globalSim, which must be symmetric, in [0,1],
// and 1 for p == p'.
func NewGreedyNCS(globalSim func(p1, p2 par.PhotoID) float64) *SurrogateGreedy {
	return &SurrogateGreedy{
		BaselineName: "Greedy-NCS",
		Surrogate: func(inst *par.Instance) (*par.Instance, error) {
			out := &par.Instance{
				Cost:     inst.Cost,
				Retained: inst.Retained,
				Budget:   inst.Budget,
				Subsets:  make([]par.Subset, len(inst.Subsets)),
			}
			for qi := range inst.Subsets {
				q := inst.Subsets[qi]
				members := q.Members
				q.Sim = par.FuncSim{
					N: len(members),
					F: func(i, j int) float64 { return globalSim(members[i], members[j]) },
				}
				out.Subsets[qi] = q
			}
			if err := out.Finalize(); err != nil {
				return nil, err
			}
			return out, nil
		},
	}
}
