// Package exact provides the optimal ("Brute-Force") solver used as the
// quality yardstick in Figure 5d of the paper. PAR is NP-hard, so the
// solver is exponential in the worst case; branch-and-bound with a
// submodular upper bound, dynamic branching order and a greedy warm start
// keeps instances of around a hundred photos with modest budgets tractable
// — matching the paper's observation that its brute force "could not run
// over larger inputs in a reasonable amount of time".
package exact

import (
	"context"
	"fmt"
	"sort"
	"time"

	"phocus/internal/par"
)

// Solver computes the exact optimum of a PAR instance by depth-first
// branch-and-bound. It implements par.Solver.
type Solver struct {
	// MaxNodes, when positive, aborts the search after expanding that many
	// search-tree nodes, guarding benchmarks against pathological inputs.
	MaxNodes int64
	// LastStats is populated by each Solve call.
	LastStats Stats
}

// Stats reports the work done by a Solve call.
type Stats struct {
	Nodes   int64         // search-tree nodes expanded
	Pruned  int64         // nodes cut by the upper bound
	Elapsed time.Duration // wall-clock time
}

// ErrNodeLimit is returned when the MaxNodes budget is exhausted before the
// search completes; the search result would not be certifiably optimal.
var ErrNodeLimit = fmt.Errorf("exact: node limit reached before proving optimality")

// Name implements par.Solver.
func (s *Solver) Name() string { return "Brute-Force" }

// Solve returns an optimal solution. The instance must be finalized. The
// context is checked once per expanded search-tree node, so a canceled
// context stops the branch-and-bound within one node expansion and the
// context's error is returned unwrapped.
func (s *Solver) Solve(ctx context.Context, inst *par.Instance) (par.Solution, error) {
	start := time.Now()
	s.LastStats = Stats{}

	e := par.NewEvaluator(inst)
	e.Seed()

	var candidates []par.PhotoID
	for p := 0; p < inst.NumPhotos(); p++ {
		id := par.PhotoID(p)
		if !e.Contains(id) {
			candidates = append(candidates, id)
		}
	}

	b := &search{ctx: ctx, inst: inst, maxNodes: s.MaxNodes, maxScore: inst.TotalWeight()}
	b.incumbent = e.Solution() // retained-only solution is always feasible
	// Warm-start the incumbent with a greedy completion: a strong feasible
	// solution up front lets the upper bound prune most of the tree.
	warm := e.Clone()
	greedyComplete(inst, warm, candidates)
	if sol := warm.Solution(); sol.Score > b.incumbent.Score {
		b.incumbent = sol
	}
	err := b.dfs(e, candidates)
	s.LastStats = Stats{Nodes: b.nodes, Pruned: b.pruned, Elapsed: time.Since(start)}
	if err != nil {
		return par.Solution{}, err
	}
	return b.incumbent, nil
}

type search struct {
	ctx       context.Context
	inst      *par.Instance
	incumbent par.Solution
	nodes     int64
	pruned    int64
	maxNodes  int64
	// maxScore is Σ W(q), an unconditional cap on any objective value;
	// it makes the bound exact when the budget stops binding.
	maxScore float64
}

// item is one open candidate at a search node.
type item struct {
	photo par.PhotoID
	gain  float64
	cost  float64
}

// dfs explores include/exclude decisions over the open candidates given the
// partial solution in e. Branching is dynamic: each node branches on the
// open candidate with the highest gain-per-cost, and candidates whose gain
// has dropped to zero are discarded outright — by submodularity a zero-gain
// photo can never gain again, so including it only burns budget.
func (b *search) dfs(e *par.Evaluator, candidates []par.PhotoID) error {
	b.nodes++
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		return ErrNodeLimit
	}
	if e.Score() > b.incumbent.Score {
		b.incumbent = e.Solution()
	}

	// Evaluate all open candidates once: the gains feed both the upper
	// bound and the branching choice.
	remaining := b.inst.Budget - e.Cost()
	items := make([]item, 0, len(candidates))
	for _, p := range candidates {
		if g := e.Gain(p); g > 0 {
			items = append(items, item{photo: p, gain: g, cost: b.inst.Cost[p]})
		}
	}
	if len(items) == 0 || remaining <= 0 {
		return nil
	}
	sort.Slice(items, func(i, j int) bool {
		return items[i].gain*items[j].cost > items[j].gain*items[i].cost
	})

	// Upper bound: fractional knapsack over the individual marginal gains
	// (each gain bounds the photo's gain in any extension, by
	// submodularity), capped by the unconditional maximum Σ W(q).
	bound := e.Score()
	budget := remaining
	for _, it := range items {
		if budget <= 0 {
			break
		}
		if it.cost <= budget {
			bound += it.gain
			budget -= it.cost
			continue
		}
		bound += it.gain * budget / it.cost
		break
	}
	if bound > b.maxScore {
		bound = b.maxScore
	}
	if bound <= b.incumbent.Score+1e-12 {
		b.pruned++
		return nil
	}

	// Branch on the densest candidate that fits; candidates too large for
	// the remaining budget can never be included below this node.
	branch := -1
	for i, it := range items {
		if it.cost <= remaining {
			branch = i
			break
		}
	}
	if branch < 0 {
		return nil
	}
	rest := make([]par.PhotoID, 0, len(items)-1)
	for i, it := range items {
		if i != branch {
			rest = append(rest, it.photo)
		}
	}

	// Include branch first: incumbents improve fastest along the greedy
	// path.
	inc := e.Clone()
	inc.Add(items[branch].photo)
	if err := b.dfs(inc, rest); err != nil {
		return err
	}
	// Exclude branch.
	return b.dfs(e, rest)
}

// greedyComplete extends e by density greedy over candidates (warm start).
func greedyComplete(inst *par.Instance, e *par.Evaluator, candidates []par.PhotoID) {
	for {
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
			return
		}
		e.Add(best)
	}
}
