package phocus

import (
	"context"
	"time"

	"phocus/internal/dataset"
	"phocus/internal/par"
)

// Algorithm selects the optimization algorithm of the Solver stage.
type Algorithm string

const (
	// AlgoCELF is the production solver (Algorithm 1): lazy greedy, best of
	// UC and CB, (1−1/e)/2 guarantee.
	AlgoCELF Algorithm = "celf"
	// AlgoSviridenko is the (1−1/e) partial-enumeration solver; Ω(n⁴), use
	// on small instances only.
	AlgoSviridenko Algorithm = "sviridenko"
	// AlgoExact is the branch-and-bound optimum; exponential worst case.
	AlgoExact Algorithm = "exact"
	// AlgoStreaming is the two-pass sieve-streaming solver: constant memory
	// per OPT guess, one gain evaluation per streamed photo — the
	// large-instance fallback when even the lazy-greedy queue is too big.
	AlgoStreaming Algorithm = "streaming"
)

// DisplayName returns the algorithm's report name ("PHOcus", "Sviridenko",
// "Brute-Force"); unknown values default to the CELF name.
func (a Algorithm) DisplayName() string {
	switch a {
	case AlgoSviridenko:
		return "Sviridenko"
	case AlgoExact:
		return "Brute-Force"
	case AlgoStreaming:
		return "Sieve-Streaming"
	default:
		return "PHOcus"
	}
}

// SolveOptions configures a Solver run.
type SolveOptions struct {
	// Budget is B in bytes. Zero means "keep everything" (budget = total
	// cost).
	Budget float64
	// Retained is S0 (photo IDs that must be kept).
	Retained []par.PhotoID
	// Algorithm defaults to AlgoCELF.
	Algorithm Algorithm
	// Tau enables τ-sparsification when positive.
	Tau float64
	// UseLSH selects SimHash candidate generation for the sparsification
	// (requires the dataset to carry CtxVectors, which all builders and
	// generators populate; Solve fails with ErrNoCtxVectors otherwise).
	UseLSH bool
	// Seed drives LSH randomness.
	Seed int64
	// SkipBound disables the a-posteriori online-bound computation (it
	// costs one marginal-gain pass over all photos).
	SkipBound bool
	// Workers bounds the pipeline's parallelism: sparsification fans out per
	// subset and the CELF solver runs its two sub-procedures concurrently.
	// Values ≤ 0 mean one worker per CPU (runtime.GOMAXPROCS(0)); 1 forces
	// the fully sequential path. Results are identical for every worker
	// count.
	Workers int
}

// Result is the outcome of a Solver run.
type Result struct {
	// Algorithm is the report name of the solver that ran ("PHOcus", ...).
	Algorithm string
	// Solution is the retained photo set with its score under the TRUE
	// (unsparsified) objective and its byte cost.
	Solution par.Solution
	// Archived lists the photos NOT retained, i.e. the disposal/archival
	// set.
	Archived []par.PhotoID
	// OnlineBound is the upper bound on OPT (0 when skipped).
	OnlineBound float64
	// CertifiedRatio = Score/OnlineBound, a lower bound on the true
	// performance ratio (0 when skipped).
	CertifiedRatio float64
	// SparsifiedPairs / OriginalPairs report how much τ-sparsification
	// shrank the similarity structure. On the LSH path OriginalPairs counts
	// only the candidate pairs with positive true similarity — a lower bound
	// on the full pair count, which LSH never enumerates.
	OriginalPairs, SparsifiedPairs int
	// PrepTime covers the Data Representation stage (finalize +
	// sparsification), SolveTime the optimization.
	PrepTime, SolveTime time.Duration
}

// Solve runs the full pipeline of Figure 4 once on a prepared dataset: the
// compatibility wrapper over Prepare + Run for one-shot callers. Callers
// that solve the same dataset repeatedly (budget sweeps, per-request
// serving) should Prepare once and Run many times instead.
func Solve(ds *dataset.Dataset, opts SolveOptions) (*Result, error) {
	return SolveContext(context.Background(), ds, opts)
}

// SolveContext is Solve with cooperative cancellation, forwarded into the
// sparsifier-side stage boundaries and the solver's inner loop.
func SolveContext(ctx context.Context, ds *dataset.Dataset, opts SolveOptions) (*Result, error) {
	p, err := Prepare(ctx, ds, PrepareOptions{
		Retained: opts.Retained,
		Tau:      opts.Tau,
		UseLSH:   opts.UseLSH,
		Seed:     opts.Seed,
		Workers:  opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, RunOptions{
		Budget:    opts.Budget,
		Algorithm: opts.Algorithm,
		SkipBound: opts.SkipBound,
		Workers:   opts.Workers,
	})
}
