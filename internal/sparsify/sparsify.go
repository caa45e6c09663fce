// Package sparsify implements the τ-sparsification preprocessing of Section
// 4.3: all contextual similarities below a threshold τ are rounded down to
// zero, so nearest-neighbour computations touch far fewer pairs. Two
// construction paths are provided — exact (offer every positive pair, keep
// the ones ≥ τ) and LSH-based (SimHash candidate generation followed by
// verification, near-linear when subsets are large) — together with the
// data-dependent error bound of Theorem 4.8. The engine's exact path
// thresholds the compiled true kernel instead (par.Kernel.Threshold); Exact
// is the all-pairs reference it is tested against.
package sparsify

import (
	"fmt"
	"math/rand"
	"time"

	"phocus/internal/embed"
	"phocus/internal/gfl"
	"phocus/internal/lsh"
	"phocus/internal/mc"
	"phocus/internal/par"
	"phocus/internal/pool"
)

// Result reports a sparsification run: the rewritten instance plus how many
// positive off-diagonal similarity pairs survived.
//
// PairsBefore counts the pairs whose true similarity was found positive
// before thresholding. For Exact that is the full positive-pair count of the
// input; for WithLSH only LSH candidate pairs are ever verified, so
// PairsBefore is a candidate-count — a lower bound on the full pair count,
// not the full count itself (computing that would defeat the point of LSH).
// PairsAfter counts the pairs ≥ τ that were kept; PairsBefore ≥ PairsAfter
// on both paths.
type Result struct {
	Instance    *par.Instance
	PairsBefore int
	PairsAfter  int
	Elapsed     time.Duration
}

// Exact builds the τ-sparsified instance by offering every positive pair
// of every subset to the threshold, with the subsets fanned out over
// GOMAXPROCS goroutines. Costs, retained set, budget, weights and
// relevances are shared with the input instance; only similarities are
// replaced (by SparseSim, so solvers automatically benefit from neighbour
// iteration). The output is byte-identical for every GOMAXPROCS.
func Exact(inst *par.Instance, tau float64) (Result, error) {
	return sparsifySubsets(time.Now(), inst, tau, func(qi int, f *pairFilter) {
		q := &inst.Subsets[qi]
		k := len(q.Members)
		// Pairs arrive in ascending order, so the builder's sort-once Build
		// is linear here, versus the O(deg²) sorted inserts SparseSim.Add
		// would pay per row.
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				f.offer(i, j, q.Sim.Sim(i, j))
			}
		}
	})
}

// WithLSH builds the τ-sparsified instance without computing all pairwise
// similarities: per subset, SimHash banding over the contextualized member
// embeddings proposes candidate pairs, and only candidates are verified
// against the true similarity. ctxVectors[qi][mi] must hold the
// contextualized embedding of subset qi's mi-th member. With a correctly
// tuned banding layout almost all pairs with similarity ≥ τ are recovered;
// missed pairs only lower similarities (never raise them), so the result is
// a valid — slightly more aggressive — sparsification.
//
// The subsets fan out over GOMAXPROCS goroutines. All randomness is
// consumed up front: one SimHash family is drawn per distinct embedding
// dimension, seeded from rng in first-seen subset order, and shared
// read-only by every worker, so the output is byte-identical for every
// GOMAXPROCS.
func WithLSH(rng *rand.Rand, inst *par.Instance, ctxVectors [][]embed.Vector, tau float64) (Result, error) {
	start := time.Now()
	if len(ctxVectors) != len(inst.Subsets) {
		return Result{}, fmt.Errorf("sparsify: %d vector groups for %d subsets", len(ctxVectors), len(inst.Subsets))
	}
	for qi := range inst.Subsets {
		if len(ctxVectors[qi]) != len(inst.Subsets[qi].Members) {
			return Result{}, fmt.Errorf("sparsify: subset %d has %d members but %d vectors",
				qi, len(inst.Subsets[qi].Members), len(ctxVectors[qi]))
		}
	}
	bands, rows := lsh.Tune(tau, 32, 16)
	// One family per dimension, not per subset: no rebuild thrashing when
	// consecutive subsets alternate dims.
	hashers := make(map[int]*lsh.SimHash)
	for qi := range inst.Subsets {
		if len(inst.Subsets[qi].Members) < 2 {
			continue
		}
		dim := len(ctxVectors[qi][0])
		if hashers[dim] == nil {
			hashers[dim] = lsh.New(rand.New(rand.NewSource(rng.Int63())), dim, bands, rows)
		}
	}
	return sparsifySubsets(start, inst, tau, func(qi int, f *pairFilter) {
		vecs := ctxVectors[qi]
		if len(vecs) < 2 {
			return
		}
		sim := inst.Subsets[qi].Sim
		for _, pair := range hashers[len(vecs[0])].CandidatePairs(vecs) {
			f.offer(pair.I, pair.J, sim.Sim(pair.I, pair.J))
		}
	})
}

// pairFilter thresholds one subset's pairs at τ into its sparse similarity
// structure.
type pairFilter struct {
	tau    float64
	bld    *par.SparseSimBuilder
	before int // pairs with positive true similarity
	kept   int // pairs ≥ τ
}

// offer counts the pair (i, j) of true similarity s and keeps it when s ≥ τ.
func (f *pairFilter) offer(i, j int, s float64) {
	if s <= 0 {
		return
	}
	f.before++
	if s >= f.tau {
		f.bld.Add(i, j, s)
		f.kept++
	}
}

// subsetResult is one subset's sparsification, carried out of the worker
// pool.
type subsetResult struct {
	sparse       *par.SparseSim
	before, kept int
}

// sparsifySubsets is the one construction behind Exact and WithLSH: it runs
// filter over every subset on GOMAXPROCS goroutines, then assembles the
// results in subset order and finalizes, so the output instance and the
// counters do not depend on the worker schedule. start is when the caller's
// sparsification began, for Result.Elapsed.
func sparsifySubsets(start time.Time, inst *par.Instance, tau float64, filter func(qi int, f *pairFilter)) (Result, error) {
	perSubset := make([]subsetResult, len(inst.Subsets))
	pool.ForEach(len(inst.Subsets), 0, func(qi int) {
		f := pairFilter{tau: tau, bld: par.NewSparseSimBuilder(len(inst.Subsets[qi].Members))}
		filter(qi, &f)
		perSubset[qi] = subsetResult{sparse: f.bld.Build(), before: f.before, kept: f.kept}
	})
	res := Result{}
	out := &par.Instance{
		Cost:     inst.Cost,
		Retained: inst.Retained,
		Budget:   inst.Budget,
		Subsets:  make([]par.Subset, len(inst.Subsets)),
	}
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		sr := &perSubset[qi]
		res.PairsBefore += sr.before
		res.PairsAfter += sr.kept
		out.Subsets[qi] = par.Subset{
			Name: q.Name, Weight: q.Weight, Members: q.Members,
			Relevance: q.Relevance, Sim: sr.sparse,
		}
	}
	if err := out.Finalize(); err != nil {
		return Result{}, fmt.Errorf("sparsify: %w", err)
	}
	res.Instance = out
	res.Elapsed = time.Since(start)
	return res, nil
}

// BoundReport is the data-dependent guarantee of Theorem 4.8 for a
// τ-sparsified instance.
type BoundReport struct {
	// Alpha is the fraction α of the total right-node weight W_R covered by
	// a budget-feasible photo set whose τ-neighbourhoods the Budgeted
	// Maximum Coverage greedy found. Theorem 4.8 then guarantees
	// F(O_τ) ≥ OPT / (1 + 1/α).
	Alpha float64
	// Factor is the resulting guarantee α/(α+1) ∈ [0, 1).
	Factor float64
	// CoverPhotos is the number of photos in the covering set S.
	CoverPhotos int
}

// Bound computes a (conservative) instantiation of Theorem 4.8's
// data-dependent bound: it searches for the covering set S with Budgeted
// Maximum Coverage (itself an approximation), so the reported α is a lower
// bound on the best achievable α and the factor is a valid guarantee.
func Bound(inst *par.Instance, tau float64) BoundReport {
	g := gfl.FromPAR(inst).Sparsify(tau)
	wr := g.TotalRightWeight()
	if wr == 0 {
		return BoundReport{}
	}
	// Budgeted Max Coverage: elements are right nodes weighted w_R; each
	// photo covers its τ-neighbourhood; costs and budget come from PAR.
	cov := &mc.Instance{
		ElementWeights: make([]float64, len(g.Right)),
		Sets:           make([][]int, len(g.LeftWeights)),
		SetCosts:       g.LeftWeights,
		Budget:         g.Budget,
	}
	for ri, r := range g.Right {
		cov.ElementWeights[ri] = r.Weight
	}
	for p := range cov.Sets {
		edges := g.EdgesByPhoto[p]
		set := make([]int, 0, len(edges))
		for _, e := range edges {
			set = append(set, e.Right)
		}
		cov.Sets[p] = set
	}
	sol := mc.GreedyBudgeted(cov)
	alpha := sol.Coverage / wr
	return BoundReport{
		Alpha:       alpha,
		Factor:      alpha / (alpha + 1),
		CoverPhotos: len(sol.Sets),
	}
}
