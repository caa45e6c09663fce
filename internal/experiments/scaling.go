package experiments

import (
	"fmt"
	"io"
	"time"

	"phocus/internal/dataset"
	"phocus/internal/metrics"
	"phocus/internal/phocus"
)

// Scaling measures end-to-end solve time across the public dataset sizes
// (P-1K … P-100K at the configured scale) at a 10% budget — the efficiency
// axis of the paper's evaluation ("datasets of different sizes and
// budgets"). Both the production path (LSH sparsification + CELF) and the
// no-sparsification path are timed; the gap should widen with size, since
// sparsification exists precisely to tame the similarity structure of
// large, skewed subsets.
func Scaling(cfg Config, w io.Writer) error {
	cfg.fill()
	t := metrics.Table{
		Title:  fmt.Sprintf("Scaling: solve time vs dataset size (scale %.2f, budget 10%%)", cfg.Scale),
		Header: []string{"dataset", "photos", "subsets", "PHOcus", "PHOcus-NS", "speedup"},
	}
	ok := true
	var prevSparse time.Duration
	for _, spec := range dataset.PublicSpecs(cfg.Scale) {
		spec.Seed += cfg.Seed
		cfg.logf("generating %s (%d photos)...", spec.Name, spec.NumPhotos)
		genStart := time.Now()
		ds, err := dataset.GeneratePublic(spec)
		if err != nil {
			return err
		}
		cfg.logf("  generated in %v", time.Since(genStart).Round(time.Millisecond))
		budget := 0.1 * ds.Instance.TotalCost()

		sp, err := solveOnce(cfg, ds, budget, phocus.PrepareOptions{
			Tau: cfg.Tau, UseLSH: true, Seed: cfg.Seed + 61,
		})
		if err != nil {
			return err
		}
		spTime := sp.PrepTime + sp.SolveTime

		// The NS path exists to show what sparsification saves; past ~30K
		// photos it takes tens of minutes (which IS the point) and is
		// skipped to keep the harness usable — exactly the impracticality
		// the paper reports for PHOcus-NS on its larger datasets.
		nsCell, speedupCell := "-", "-"
		if ds.Instance.NumPhotos() <= 30_000 {
			ns, err := solveOnce(cfg, ds, budget, phocus.PrepareOptions{})
			if err != nil {
				return err
			}
			nsTime := ns.PrepTime + ns.SolveTime
			nsCell = metrics.FormatDuration(nsTime)
			speedupCell = fmt.Sprintf("%.1fx", float64(nsTime)/float64(spTime))
			cfg.logf("  %s: sparsified %v vs NS %v, quality %.4f vs %.4f",
				spec.Name, spTime.Round(time.Millisecond), nsTime.Round(time.Millisecond),
				sp.Solution.Score, ns.Solution.Score)
			if sp.Solution.Score < 0.85*ns.Solution.Score {
				ok = false
			}
		} else {
			cfg.logf("  %s: sparsified %v (NS skipped at this size)", spec.Name, spTime.Round(time.Millisecond))
		}
		t.AddRow(spec.Name,
			fmt.Sprint(ds.Instance.NumPhotos()),
			fmt.Sprint(len(ds.Instance.Subsets)),
			metrics.FormatDuration(spTime),
			nsCell,
			speedupCell)
		if spTime < prevSparse/4 {
			// Times must broadly grow with size; a big inversion suggests a
			// measurement or code problem.
			ok = false
		}
		prevSparse = spTime
	}
	t.Fprint(w)
	if ok {
		fmt.Fprintln(w, "shape: OK (time grows with size; sparsified quality within 15% throughout)")
	} else {
		fmt.Fprintln(w, "shape: VIOLATION")
	}
	return nil
}

// Variance re-runs the Figure 5a comparison across several dataset seeds
// and reports the per-algorithm spread at the 10% budget — evidence that
// the comparative shapes are not artifacts of one random draw.
func Variance(cfg Config, w io.Writer) error {
	cfg.fill()
	const runs = 5
	scores := map[string][]float64{}
	var order []string
	for r := 0; r < runs; r++ {
		sub := cfg
		sub.Seed = cfg.Seed + int64(100*r)
		ds, err := publicDataset(sub, 0)
		if err != nil {
			return err
		}
		fig, err := qualityFigure(sub, ds, "variance run")
		if err != nil {
			return err
		}
		for _, s := range fig.Series {
			if _, seen := scores[s.Name]; !seen {
				order = append(order, s.Name)
			}
			scores[s.Name] = append(scores[s.Name], s.Values[0]) // 10% budget point
		}
	}
	t := metrics.Table{
		Title:  fmt.Sprintf("Variance: P-1K quality at 10%% budget over %d seeds", runs),
		Header: []string{"algorithm", "mean", "min", "max", "spread"},
	}
	means := map[string]float64{}
	for _, name := range order {
		vals := scores[name]
		mn, mx, sum := vals[0], vals[0], 0.0
		for _, v := range vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			sum += v
		}
		mean := sum / float64(len(vals))
		means[name] = mean
		t.AddRow(name, fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", mn),
			fmt.Sprintf("%.4f", mx), fmt.Sprintf("%.1f%%", 100*(mx-mn)/mean))
		cfg.logf("  variance %s: mean %.4f over %v", name, mean, vals)
	}
	t.Fprint(w)
	if means["PHOcus"] > means["G-NCS"] && means["G-NCS"] > means["G-NR"] && means["G-NR"] > means["RAND"] {
		fmt.Fprintln(w, "shape: OK (mean ranking stable across seeds)")
	} else {
		fmt.Fprintln(w, "shape: VIOLATION — ranking unstable across seeds")
	}
	return nil
}

// solveOnce prepares ds with opts and runs CELF once at budget without the
// online bound; the Result's PrepTime and SolveTime time the two stages.
func solveOnce(cfg Config, ds *dataset.Dataset, budget float64, opts phocus.PrepareOptions) (*phocus.Result, error) {
	p, err := phocus.Prepare(cfg.ctx(), ds, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg.ctx(), phocus.RunOptions{Budget: budget, SkipBound: true})
}
