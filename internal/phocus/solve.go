package phocus

import (
	"fmt"
	"time"

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

// ParseAlgorithm maps an algorithm name ("celf", "sviridenko", "exact",
// "streaming"; empty means "celf") to its Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch a := Algorithm(name); a {
	case "":
		return AlgoCELF, nil
	case AlgoCELF, AlgoSviridenko, AlgoExact, AlgoStreaming:
		return a, nil
	}
	return "", fmt.Errorf("unknown algo %q: want celf, sviridenko, exact or streaming", name)
}

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
	// on the full pair count, which LSH never enumerates. After deltas they
	// are the churned instance's.
	OriginalPairs, SparsifiedPairs int
	// PrepTime covers the Data Representation stage (finalize +
	// sparsification), SolveTime the optimization, RescoreTime the rescore
	// under the true objective with the archived complement, and BoundTime
	// the online bound (0 when skipped).
	PrepTime, SolveTime, RescoreTime, BoundTime time.Duration
}
