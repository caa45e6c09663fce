package experiments

import (
	"fmt"
	"io"

	"phocus/internal/metrics"
	"phocus/internal/phocus"
	"phocus/internal/streaming"
)

// Streaming compares the single-pass sieve-streaming solver against CELF on
// P-1K across budgets — the trade-off for archives too large for a global
// priority queue (related-work direction, Section 2).
func Streaming(cfg Config, w io.Writer) error {
	cfg.fill()
	ds, err := publicDataset(cfg, 0)
	if err != nil {
		return err
	}
	inst := ds.Instance
	total := inst.TotalCost()
	fig := &metrics.Figure{Title: "Extension: sieve-streaming vs CELF (P-1K)", XLabel: "budget"}
	var stream, greedy []float64
	worst := 1.0
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.5} {
		if err := ds.SetBudget(frac * total); err != nil {
			return err
		}
		fig.XTicks = append(fig.XTicks, metrics.FormatBytes(frac*total))
		var ss streaming.Solver
		ssol, err := ss.Solve(cfg.ctx(), inst)
		if err != nil {
			return err
		}
		cs := phocus.PipelineSolver{}
		csol, err := cs.Solve(cfg.ctx(), inst)
		if err != nil {
			return err
		}
		stream = append(stream, ssol.Score)
		greedy = append(greedy, csol.Score)
		if csol.Score > 0 && ssol.Score/csol.Score < worst {
			worst = ssol.Score / csol.Score
		}
		cfg.logf("  streaming budget=%.0f%%: sieve %.4f (%d sieves) vs CELF %.4f",
			100*frac, ssol.Score, ss.LastStats.Sieves, csol.Score)
	}
	fig.AddSeries("Sieve-Streaming", stream)
	fig.AddSeries("PHOcus (CELF)", greedy)
	fig.Fprint(w)
	fmt.Fprintf(w, "worst streaming/CELF ratio: %.2f\n", worst)
	if worst >= 0.7 {
		fmt.Fprintln(w, "shape: OK (single pass stays within a modest factor of CELF)")
	} else {
		fmt.Fprintln(w, "shape: VIOLATION — streaming quality collapsed")
	}
	return nil
}
