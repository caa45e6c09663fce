package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"phocus/internal/baselines"
	"phocus/internal/celf"
	"phocus/internal/metrics"
	"phocus/internal/par"
	"phocus/internal/phocus"
	"phocus/internal/sparsify"
	"phocus/internal/study"
)

// SmallBudget reproduces Section 5.3's "budget scenarios in practice": an
// Electronics landing-page cache of 2 MB selected from 640 photos (~50 MB),
// i.e. a budget of ~4% of the archive, where the paper reports PHOcus at
// 35% of the total quality vs 18% (Greedy-NCS) and 16% (Greedy-NR).
func SmallBudget(cfg Config, w io.Writer) error {
	cfg.fill()
	full, err := ecDataset(cfg, "Electronics")
	if err != nil {
		return err
	}
	// Carve a 640-photo sub-instance (or the whole dataset if smaller).
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	inst, origPhotos := study.SubInstance(rng, full.Instance, 640, 0.04)
	if inst == nil {
		return fmt.Errorf("experiments: empty small-budget sub-instance")
	}
	maxScore := inst.TotalWeight()
	t := metrics.Table{
		Title: fmt.Sprintf("Sec 5.3: small-budget scenario (%d photos, budget %s = 4%% of archive)",
			inst.NumPhotos(), metrics.FormatBytes(inst.Budget)),
		Header: []string{"Algorithm", "Quality", "% of total quality", "paper"},
	}
	paperPct := map[string]string{"PHOcus": "35%", "G-NCS": "18%", "G-NR": "16%"}
	// SubInstance remapped photo IDs; route Greedy-NCS's global similarity
	// through the mapping back to the full dataset's photos.
	results := make(map[string]float64)
	for _, s := range []par.Solver{
		&phocus.PipelineSolver{},
		baselines.NewGreedyNCS(func(p1, p2 par.PhotoID) float64 {
			return full.GlobalSim(origPhotos[p1], origPhotos[p2])
		}),
		baselines.NewGreedyNR(),
	} {
		sol, err := s.Solve(cfg.ctx(), inst)
		if err != nil {
			return err
		}
		results[displayName(s.Name())] = sol.Score
		cfg.logf("  smallbudget %s: %.4f (%.1f%% of max)", s.Name(), sol.Score, 100*sol.Score/maxScore)
	}
	for _, name := range []string{"PHOcus", "G-NCS", "G-NR"} {
		t.AddRow(name,
			fmt.Sprintf("%.4f", results[name]),
			fmt.Sprintf("%.1f%%", 100*results[name]/maxScore),
			paperPct[name])
	}
	t.Fprint(w)
	if results["PHOcus"] > results["G-NCS"] && results["PHOcus"] > results["G-NR"] {
		fmt.Fprintln(w, "shape: OK (PHOcus has the largest advantage at small budgets)")
	} else {
		fmt.Fprintln(w, "shape: VIOLATION — PHOcus not ahead at small budget")
	}
	return nil
}

// OnlineBounds reproduces the Section 4.2 observation: the a-posteriori
// online bound certifies performance ratios far above the worst-case
// (1−1/e)/2 ≈ 0.316 guarantee.
func OnlineBounds(cfg Config, w io.Writer) error {
	cfg.fill()
	ds, err := publicDataset(cfg, 0)
	if err != nil {
		return err
	}
	total := ds.Instance.TotalCost()
	t := metrics.Table{
		Title:  "Sec 4.2: certified performance ratios (online bound), P-1K",
		Header: []string{"Budget", "Score", "UpperBound(OPT)", "CertifiedRatio"},
	}
	worstCase := (1 - 1/math.E) / 2
	minRatio := 1.0
	prep, err := phocus.Prepare(cfg.ctx(), ds, phocus.PrepareOptions{Metrics: cfg.Metrics})
	if err != nil {
		return err
	}
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.5} {
		res, err := prep.Run(cfg.ctx(), phocus.RunOptions{Budget: frac * total})
		if err != nil {
			return err
		}
		if res.CertifiedRatio < minRatio {
			minRatio = res.CertifiedRatio
		}
		t.AddRow(metrics.FormatBytes(frac*total),
			fmt.Sprintf("%.4f", res.Solution.Score),
			fmt.Sprintf("%.4f", res.OnlineBound),
			fmt.Sprintf("%.3f", res.CertifiedRatio))
		cfg.logf("  onlinebound %.0f%%: ratio %.3f", 100*frac, res.CertifiedRatio)
	}
	t.Fprint(w)
	fmt.Fprintf(w, "worst certified ratio %.3f vs a-priori guarantee %.3f\n", minRatio, worstCase)
	if minRatio > worstCase {
		fmt.Fprintln(w, "shape: OK (practice far exceeds the worst-case bound)")
	} else {
		fmt.Fprintln(w, "shape: VIOLATION")
	}
	return nil
}

// TauSweep explores the sparsification trade-off of Theorem 4.8 on P-1K:
// surviving pairs, solution quality under the true objective, the
// data-dependent bound factor, and solve time per τ.
func TauSweep(cfg Config, w io.Writer) error {
	cfg.fill()
	ds, err := publicDataset(cfg, 0)
	if err != nil {
		return err
	}
	budget := 0.2 * ds.Instance.TotalCost()
	if err := ds.SetBudget(budget); err != nil {
		return err
	}
	var baseScore float64
	t := metrics.Table{
		Title:  "Thm 4.8: τ-sparsification sweep, P-1K (budget 20%)",
		Header: []string{"tau", "pairs kept", "quality", "loss", "bound α/(α+1)"},
	}
	for _, tau := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		// One Prepare per τ (the sweep's whole point is re-sparsifying); Run
		// already rescores under the true objective.
		prep, err := phocus.Prepare(cfg.ctx(), ds, phocus.PrepareOptions{Tau: tau, Metrics: cfg.Metrics})
		if err != nil {
			return err
		}
		res, err := prep.Run(cfg.ctx(), phocus.RunOptions{Budget: budget, SkipBound: true})
		if err != nil {
			return err
		}
		sol := res.Solution
		pairs := "all"
		if tau == 0 {
			baseScore = sol.Score
		} else {
			pairs = fmt.Sprintf("%d/%d", prep.SparsifiedPairs, prep.OriginalPairs)
		}
		bound := sparsify.Bound(ds.Instance, tau)
		loss := 0.0
		if baseScore > 0 {
			loss = 1 - sol.Score/baseScore
		}
		t.AddRow(fmt.Sprintf("%.2f", tau), pairs,
			fmt.Sprintf("%.4f", sol.Score),
			fmt.Sprintf("%.1f%%", 100*loss),
			fmt.Sprintf("%.3f", bound.Factor))
		cfg.logf("  tau=%.2f quality=%.4f loss=%.2f%%", tau, sol.Score, 100*loss)
	}
	t.Fprint(w)
	return nil
}

// Ablations quantifies two design choices the paper discusses: (a) the CB
// sub-algorithm wins the max in ~90% of weighted-cost runs, validating the
// claim that cost-oblivious algorithms are ill-suited; (b) CELF's lazy
// evaluation saves most marginal-gain computations versus eager greedy.
func Ablations(cfg Config, w io.Writer) error {
	cfg.fill()
	const trials = 20
	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	cbWins := 0
	var lazyEvals, eagerEvals int64
	for trial := 0; trial < trials; trial++ {
		inst := par.Random(rng, par.RandomConfig{
			Photos: 150, Subsets: 60, BudgetFrac: 0.15 + 0.2*rng.Float64(),
		})
		var stats celf.Stats
		s := phocus.PipelineSolver{OnCELFStats: func(st celf.Stats) { stats = st }}
		if _, err := s.Solve(cfg.ctx(), inst); err != nil {
			return err
		}
		if stats.Winner == celf.CB {
			cbWins++
		}
		_, lazyStats, err := celf.LazyGreedy(cfg.ctx(), inst, celf.CB, nil)
		if err != nil {
			return err
		}
		_, eagerStats, err := celf.EagerGreedy(inst, celf.CB)
		if err != nil {
			return err
		}
		lazyEvals += lazyStats.GainEvals
		eagerEvals += eagerStats.GainEvals
	}
	t := metrics.Table{
		Title:  "Ablations",
		Header: []string{"Question", "Result", "paper"},
	}
	t.AddRow("CB sub-algorithm wins (weighted costs)",
		fmt.Sprintf("%d/%d (%.0f%%)", cbWins, trials, 100*float64(cbWins)/trials), "~90%")
	speedup := float64(eagerEvals) / float64(lazyEvals)
	t.AddRow("lazy vs eager gain evaluations",
		fmt.Sprintf("%d vs %d (%.1fx fewer)", lazyEvals, eagerEvals, speedup), "large savings (CELF reports up to 700x)")
	t.Fprint(w)
	if cbWins > trials/2 && speedup > 1 {
		fmt.Fprintln(w, "shape: OK")
	} else {
		fmt.Fprintln(w, "shape: VIOLATION")
	}
	return nil
}
