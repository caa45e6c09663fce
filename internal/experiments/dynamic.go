package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"phocus/internal/dynamic"
	"phocus/internal/metrics"
	"phocus/internal/par"
	"phocus/internal/phocus"
)

// Dynamic evaluates the incremental-maintenance loop (internal/dynamic): a
// P-1K archive arrives photo by photo as deltas applied to a live engine
// instance; the maintainer's cheap per-arrival rule is compared against
// full CELF re-solves at checkpoints, in both quality and time. Scores on
// both sides are valued under the complete instance's objective so the
// ratio is scale-free.
func Dynamic(cfg Config, w io.Writer) error {
	cfg.fill()
	ctx := cfg.ctx()
	ds, err := publicDataset(cfg, 0)
	if err != nil {
		return err
	}
	inst := ds.Instance
	if err := ds.SetBudget(0.2 * inst.TotalCost()); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 53))
	var order []par.PhotoID
	for _, p := range rng.Perm(inst.NumPhotos()) {
		order = append(order, par.PhotoID(p))
	}

	// Seed the engine with the shortest stream prefix that covers a subset,
	// then stream the rest through the delta path.
	seedLen := 0
	for seedLen < len(order) {
		p := order[seedLen]
		seedLen++
		if len(inst.Occurrences(p)) > 0 {
			break
		}
	}
	feeder, seedDS, err := dynamic.NewFeeder(inst, order[:seedLen])
	if err != nil {
		return err
	}
	prep, err := phocus.Prepare(ctx, seedDS, phocus.PrepareOptions{})
	if err != nil {
		return err
	}
	m, err := dynamic.New(prep, inst.Budget, dynamic.Options{})
	if err != nil {
		return err
	}

	t := metrics.Table{
		Title:  "Dynamic maintenance: incremental swaps vs full re-solve (P-1K, 20% budget)",
		Header: []string{"arrived", "incremental score", "re-solve score", "ratio"},
	}
	checkpoints := map[int]bool{
		len(order) / 4: true, len(order) / 2: true, 3 * len(order) / 4: true, len(order): true,
	}
	var incTime time.Duration
	worst := 1.0
	revealed := make([]bool, inst.NumPhotos())
	arrive := func(i int, p par.PhotoID, seeded bool) error {
		t0 := time.Now()
		if seeded {
			_, err = m.Consider(ctx, feeder.EngineID(p))
		} else {
			var d *phocus.Delta
			if d, err = feeder.Reveal(p); err == nil {
				_, err = m.Arrive(ctx, d)
			}
		}
		if err != nil {
			return err
		}
		incTime += time.Since(t0)
		revealed[p] = true
		if !checkpoints[i+1] {
			return nil
		}
		oracle, err := solveRevealed(ctx, inst, revealed)
		if err != nil {
			return err
		}
		// Value the maintained selection under the full objective, the same
		// scale the oracle reports on.
		got := par.ScoreFast(inst, feeder.Orig(m.Solution().Photos))
		ratio := 1.0
		if oracle > 0 {
			ratio = got / oracle
		}
		if ratio < worst {
			worst = ratio
		}
		t.AddRow(fmt.Sprint(i+1),
			fmt.Sprintf("%.4f", got),
			fmt.Sprintf("%.4f", oracle),
			fmt.Sprintf("%.3f", ratio))
		cfg.logf("  dynamic %d arrived: %.4f vs %.4f", i+1, got, oracle)
		return nil
	}
	for i, p := range order {
		if err := arrive(i, p, i < seedLen); err != nil {
			return err
		}
	}
	t.Fprint(w)
	fmt.Fprintf(w, "total incremental decision time: %v for %d arrivals\n",
		incTime.Round(time.Millisecond), len(order))
	if worst >= 0.7 {
		fmt.Fprintln(w, "shape: OK (cheap per-arrival decisions stay close to full re-solves)")
	} else {
		fmt.Fprintln(w, "shape: VIOLATION — incremental maintenance drifted too far")
	}
	return nil
}

// solveRevealed runs CELF over the revealed prefix of the archive (same
// restriction the maintainer's own re-solve uses, built independently here
// to serve as the oracle).
func solveRevealed(ctx context.Context, inst *par.Instance, revealed []bool) (float64, error) {
	cost := make([]float64, inst.NumPhotos())
	copy(cost, inst.Cost)
	for p := range cost {
		if !revealed[p] {
			cost[p] = inst.Budget * 10
		}
	}
	sub := &par.Instance{Cost: cost, Retained: inst.Retained, Budget: inst.Budget}
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		var members []par.PhotoID
		var rel []float64
		for mi, p := range q.Members {
			if revealed[p] {
				members = append(members, p)
				rel = append(rel, q.Relevance[mi])
			}
		}
		if len(members) == 0 {
			continue
		}
		k := len(members)
		memIdx := make([]int, k)
		j := 0
		for mi, p := range q.Members {
			if revealed[p] {
				memIdx[j] = mi
				j++
			}
		}
		orig := q.Sim
		sub.Subsets = append(sub.Subsets, par.Subset{
			Name: q.Name, Weight: q.Weight, Members: members, Relevance: rel,
			Sim: par.FuncSim{N: k, F: func(a, b int) float64 { return orig.Sim(memIdx[a], memIdx[b]) }},
		})
	}
	sub.NormalizeRelevance()
	if err := sub.Finalize(); err != nil {
		return 0, err
	}
	var solver phocus.PipelineSolver
	sol, err := solver.Solve(ctx, sub)
	if err != nil {
		return 0, err
	}
	// Photo IDs are stable, so the oracle's selection can be valued under
	// the FULL objective — the same scale the maintainer's score uses.
	return par.ScoreFast(inst, sol.Photos), nil
}
