// Command phocus solves a PAR instance from a JSON file and reports which
// photos to retain and which to archive.
//
// Usage:
//
//	phocus -input instance.json [-budget 5e6]
//	       [-algo celf|sviridenko|exact|streaming]
//	       [-tau 0.75] [-lsh -seed 1] [-retained 0,5,9]
//	       [-solve-timeout 30s] [-json]
//
// Every parallel stage runs on GOMAXPROCS goroutines; set the GOMAXPROCS
// environment variable to bound them (GOMAXPROCS=1 runs sequentially).
//
// The input may be in either the JSON or the binary format produced by
// phocus-datagen (auto-detected; LSH sparsification needs the context
// vectors phocus-datagen emits with -vectors). A budget of 0 keeps the
// file's budget; -retained extends the file's S0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"phocus/internal/baselines"
	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/embed"
	"phocus/internal/exact"
	"phocus/internal/metrics"
	"phocus/internal/par"
	"phocus/internal/phocus"
	"phocus/internal/streaming"
	"phocus/internal/sviridenko"
)

func main() {
	var (
		input    = flag.String("input", "", "instance JSON file (required; '-' for stdin)")
		budget   = flag.Float64("budget", 0, "override budget in bytes (0 = keep file budget)")
		algo     = flag.String("algo", "celf", "solver: celf, sviridenko, exact or streaming")
		tau      = flag.Float64("tau", 0, "τ-sparsification threshold (0 = off)")
		lsh      = flag.Bool("lsh", false, "use SimHash candidate generation for the sparsification (needs context vectors in the input)")
		seed     = flag.Int64("seed", 0, "LSH randomness seed")
		retained = flag.String("retained", "", "comma-separated photo IDs to force-retain (added to the file's S0)")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
		stats    = flag.Bool("stats", false, "print instance statistics before solving")
		compare  = flag.Bool("compare", false, "run every solver and baseline, print a comparison table instead of solving once")
		timeout  = flag.Duration("solve-timeout", 0, "abort the solve after this long (0 = no deadline)")
	)
	flag.Parse()
	if *compare {
		if err := runCompare(os.Stdout, *input, *budget, *retained); err != nil {
			fmt.Fprintln(os.Stderr, "phocus:", err)
			os.Exit(1)
		}
		return
	}
	opts := phocus.PrepareOptions{Tau: *tau, UseLSH: *lsh, Seed: *seed}
	if err := run(os.Stdout, *input, *budget, *retained, *algo, opts, *asJSON, *stats, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "phocus:", err)
		os.Exit(1)
	}
}

// run prepares the instance with opts and solves it once with algo, the
// budget applied while loading.
func run(w io.Writer, input string, budget float64, retained, algo string, opts phocus.PrepareOptions, asJSON bool, stats bool, timeout time.Duration) error {
	algorithm, err := phocus.ParseAlgorithm(algo)
	if err != nil {
		return err
	}
	ds, err := loadDataset(input, budget, retained)
	if err != nil {
		return err
	}
	inst := ds.Instance
	if stats {
		fmt.Fprintln(w, par.Stats(inst))
		fmt.Fprintln(w)
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	p, err := phocus.Prepare(ctx, ds, opts)
	if err != nil {
		return err
	}
	res, err := p.Run(ctx, phocus.RunOptions{Budget: inst.Budget, Algorithm: algorithm})
	if err != nil {
		return err
	}
	sol := res.Solution

	if asJSON {
		out := struct {
			Algorithm   string        `json:"algorithm"`
			Retain      []par.PhotoID `json:"retain"`
			Archive     []par.PhotoID `json:"archive"`
			Score       float64       `json:"score"`
			Cost        float64       `json:"cost"`
			Budget      float64       `json:"budget"`
			OnlineBound float64       `json:"online_bound"`
		}{res.Algorithm, sol.Photos, res.Archived, sol.Score, sol.Cost, inst.Budget, res.OnlineBound}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Fprintf(w, "algorithm:    %s\n", res.Algorithm)
	fmt.Fprintf(w, "photos:       %d total, %d retained, %d archived\n",
		inst.NumPhotos(), len(sol.Photos), len(res.Archived))
	fmt.Fprintf(w, "cost:         %s of %s budget\n", metrics.FormatBytes(sol.Cost), metrics.FormatBytes(inst.Budget))
	fmt.Fprintf(w, "score:        %.6f (max attainable %.6f)\n", sol.Score, inst.TotalWeight())
	if res.OnlineBound > 0 {
		fmt.Fprintf(w, "certified:    ≥ %.1f%% of optimal (online bound %.6f)\n", 100*sol.Score/res.OnlineBound, res.OnlineBound)
	}
	fmt.Fprintf(w, "retain:       %v\n", sol.Photos)
	return nil
}

// loadDataset reads an instance (JSON or binary) with any context vectors
// it carries, applying the budget override and extra retained IDs.
func loadDataset(input string, budget float64, retained string) (*dataset.Dataset, error) {
	if input == "" {
		return nil, fmt.Errorf("-input is required")
	}
	in := os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	inst, vecs, err := par.ReadAutoVectors(in)
	if err != nil {
		return nil, err
	}
	if budget > 0 {
		inst.Budget = budget
	}
	if retained != "" {
		for _, tok := range strings.Split(retained, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad -retained entry %q: %w", tok, err)
			}
			inst.Retained = append(inst.Retained, par.PhotoID(id))
		}
	}
	if err := inst.Finalize(); err != nil {
		return nil, err
	}
	ds := &dataset.Dataset{Instance: inst}
	if vecs != nil {
		ds.CtxVectors = make([][]embed.Vector, len(vecs))
		for i, group := range vecs {
			ds.CtxVectors[i] = make([]embed.Vector, len(group))
			for j, v := range group {
				ds.CtxVectors[i][j] = embed.Vector(v)
			}
		}
	}
	return ds, nil
}

// loadInstance is loadDataset for callers that only need the instance.
func loadInstance(input string, budget float64, retained string) (*par.Instance, error) {
	ds, err := loadDataset(input, budget, retained)
	if err != nil {
		return nil, err
	}
	return ds.Instance, nil
}

// runCompare solves the instance with every algorithm and baseline and
// prints a quality/time comparison. Every solution's online bound is an
// upper bound on the optimum, so the table measures against the tightest.
func runCompare(w io.Writer, input string, budget float64, retained string) error {
	inst, err := loadInstance(input, budget, retained)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, par.Stats(inst))
	fmt.Fprintln(w)

	t := metrics.Table{Header: []string{"algorithm", "score", "% of bound", "photos", "time"}}
	bound := 0.0
	type row struct {
		name    string
		sol     par.Solution
		elapsed time.Duration
	}
	var rows []row
	for _, s := range compareSolvers(inst) {
		start := time.Now()
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
		sol.Score = par.ScoreFast(inst, sol.Photos)
		rows = append(rows, row{name: s.Name(), sol: sol, elapsed: time.Since(start)})
		if b := celf.OnlineBound(inst, sol.Photos); b > 0 && (bound == 0 || b < bound) {
			bound = b
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sol.Score > rows[j].sol.Score })
	for _, r := range rows {
		pct := "-"
		if bound > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*r.sol.Score/bound)
		}
		t.AddRow(r.name, fmt.Sprintf("%.6f", r.sol.Score), pct,
			fmt.Sprint(len(r.sol.Photos)), metrics.FormatDuration(r.elapsed))
	}
	t.Fprint(w)
	fmt.Fprintf(w, "upper bound on the optimum: %.6f\n", bound)
	return nil
}

// compareSolvers lists the solvers runCompare runs on inst: every algorithm
// and the baselines, plus the exact optimum on instances small enough for it.
func compareSolvers(inst *par.Instance) []par.Solver {
	solvers := []par.Solver{
		&celf.Solver{},
		&sviridenko.Solver{},
		&streaming.Solver{},
		baselines.NewGreedyNR(),
		&baselines.RandAdd{Seed: 1},
	}
	if inst.NumPhotos() <= 60 {
		solvers = append(solvers, &exact.Solver{MaxNodes: 20_000_000})
	}
	return solvers
}
