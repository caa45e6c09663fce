// Package study simulates the paper's user study (Section 5.4): business
// analysts manually assembling landing-page photo selections are modeled as
// a heuristic that walks subsets in importance order picking top-relevance
// photos — deliberately without cross-subset similarity reasoning, which is
// exactly the capability the analysts reported lacking — plus a browsing
// time model; PHOcus runs the real solver plus a fixed review overhead. The
// package also implements the second part of the study: repeated preference
// judgments between two algorithms on ~100-photo sub-instances by a noisy
// expert with a "cannot decide" margin.
package study

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"phocus/internal/celf"
	"phocus/internal/par"
)

// Analyst models the manual workflow.
type Analyst struct {
	// SecondsPerPhotoView is the browsing cost of looking at one candidate
	// photo once. The default 1.0 s puts EC-scale datasets (≈37K photo
	// views) in the 6–14 h band the paper reports.
	SecondsPerPhotoView float64
	// SecondsPerDecision is the extra cost of each retained photo.
	SecondsPerDecision float64
}

// DefaultAnalyst returns the calibration used by the experiments.
func DefaultAnalyst() Analyst {
	return Analyst{SecondsPerPhotoView: 1.0, SecondsPerDecision: 20}
}

// Solve produces the analyst's selection and the modeled wall-clock effort.
// Strategy: subsets in descending importance, round-robin, each time taking
// the subset's highest-relevance photo not yet selected that fits the
// remaining budget; a photo already selected for another subset is reused
// for free (the analyst does notice exact re-occurrences — what they miss
// is partial visual redundancy, which requires the similarity model).
func (a Analyst) Solve(inst *par.Instance) (par.Solution, time.Duration) {
	// Browsing: every member of every subset is inspected once.
	var views int
	for qi := range inst.Subsets {
		views += len(inst.Subsets[qi].Members)
	}

	order := make([]int, len(inst.Subsets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return inst.Subsets[order[i]].Weight > inst.Subsets[order[j]].Weight
	})

	// Per-subset members sorted by descending relevance.
	ranked := make([][]int, len(inst.Subsets))
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		idx := make([]int, len(q.Members))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return q.Relevance[idx[a]] > q.Relevance[idx[b]] })
		ranked[qi] = idx
	}

	e := par.NewEvaluator(inst)
	e.Seed()
	cursor := make([]int, len(inst.Subsets))
	decisions := 0
	for progress := true; progress; {
		progress = false
		for _, qi := range order {
			q := &inst.Subsets[qi]
			for cursor[qi] < len(ranked[qi]) {
				mi := ranked[qi][cursor[qi]]
				cursor[qi]++
				p := q.Members[mi]
				if e.Contains(p) {
					continue // already covered by another page: free reuse
				}
				if !e.Fits(p) {
					continue
				}
				e.Add(p)
				decisions++
				progress = true
				break
			}
		}
	}

	elapsed := time.Duration((a.SecondsPerPhotoView*float64(views) +
		a.SecondsPerDecision*float64(decisions)) * float64(time.Second))
	return e.Solution(), elapsed
}

// ComparisonResult is one Figure 5g/5h row.
type ComparisonResult struct {
	Name                         string
	PHOcusQuality, ManualQuality float64
	PHOcusTime, ManualTime       time.Duration
}

// ReviewOverhead is the fixed human final-touch time added on top of the
// PHOcus solve (the paper reports "less than 10 minutes" end to end).
const ReviewOverhead = 8 * time.Minute

// Compare runs PHOcus and the simulated analyst on the same instance.
func Compare(name string, inst *par.Instance, analyst Analyst) (ComparisonResult, error) {
	start := time.Now()
	var solver celf.Solver
	psol, err := solver.Solve(context.Background(), inst)
	if err != nil {
		return ComparisonResult{}, err
	}
	solveTime := time.Since(start)
	msol, manualTime := analyst.Solve(inst)
	return ComparisonResult{
		Name:          name,
		PHOcusQuality: psol.Score,
		ManualQuality: msol.Score,
		PHOcusTime:    solveTime + ReviewOverhead,
		ManualTime:    manualTime,
	}, nil
}

// JudgmentConfig configures the preference-judgment protocol.
type JudgmentConfig struct {
	// Iterations is the number of independent comparisons (paper: 50).
	Iterations int
	// SubsetPhotos is the size of each sampled sub-instance (paper: ~100).
	SubsetPhotos int
	// BudgetFrac is the sub-instance budget as a fraction of its total
	// cost (default 0.08; small budgets are where selection quality
	// differences show, cf. Section 5.3).
	BudgetFrac float64
	// NoisePct is the standard deviation of the expert's perception noise,
	// relative to the score scale (default 0.01, calibrated so the tie rate matches the ~20-25% the paper reports).
	NoisePct float64
	// TiePct is the relative score margin below which the expert clicks
	// "cannot decide" (default 0.015).
	TiePct float64
	// Seed drives sampling and noise.
	Seed int64
}

func (c *JudgmentConfig) fill() {
	if c.Iterations == 0 {
		c.Iterations = 50
	}
	if c.SubsetPhotos == 0 {
		c.SubsetPhotos = 100
	}
	if c.BudgetFrac == 0 {
		c.BudgetFrac = 0.08
	}
	if c.NoisePct == 0 {
		c.NoisePct = 0.01
	}
	if c.TiePct == 0 {
		c.TiePct = 0.015
	}
}

// JudgmentResult counts the expert's verdicts.
type JudgmentResult struct {
	APreferred, BPreferred, CannotDecide int
}

// SolverFactory builds a solver for one sampled sub-instance. origPhotos
// maps the sub-instance's dense photo IDs back to the parent instance's IDs
// so similarity side-information (e.g. Greedy-NCS's global similarity) can
// be remapped correctly. Factories that need no side information ignore
// both arguments.
type SolverFactory func(sub *par.Instance, origPhotos []par.PhotoID) par.Solver

// Fixed adapts a plain solver into a SolverFactory.
func Fixed(s par.Solver) SolverFactory {
	return func(*par.Instance, []par.PhotoID) par.Solver { return s }
}

// Judge runs the iterated expert comparison of two solvers on random
// sub-instances of the given instance (paper Section 5.4, second part:
// PHOcus vs Greedy-NCS, 50 iterations, ≈100 photos each).
func Judge(inst *par.Instance, a, b SolverFactory, cfg JudgmentConfig) (JudgmentResult, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var res JudgmentResult
	for it := 0; it < cfg.Iterations; it++ {
		sub, orig := SubInstanceBySubsets(rng, inst, cfg.SubsetPhotos, cfg.BudgetFrac)
		if sub == nil {
			continue
		}
		solA, err := a(sub, orig).Solve(context.Background(), sub)
		if err != nil {
			return res, err
		}
		solB, err := b(sub, orig).Solve(context.Background(), sub)
		if err != nil {
			return res, err
		}
		qa := par.ScoreFast(sub, solA.Photos)
		qb := par.ScoreFast(sub, solB.Photos)
		scale := qa
		if qb > scale {
			scale = qb
		}
		if scale == 0 {
			res.CannotDecide++
			continue
		}
		qa += rng.NormFloat64() * cfg.NoisePct * scale
		qb += rng.NormFloat64() * cfg.NoisePct * scale
		switch {
		case qa-qb > cfg.TiePct*scale:
			res.APreferred++
		case qb-qa > cfg.TiePct*scale:
			res.BPreferred++
		default:
			res.CannotDecide++
		}
	}
	return res, nil
}

// SubInstance samples k photos and restricts the instance to them: subsets
// keep only sampled members (empty subsets drop), relevance renormalizes,
// similarities are index-remapped views of the original, and the budget is
// BudgetFrac of the sample's total cost. The second result maps the
// sub-instance's dense photo IDs back to the parent's. Returns nil if no
// subsets survive.
func SubInstance(rng *rand.Rand, inst *par.Instance, k int, budgetFrac float64) (*par.Instance, []par.PhotoID) {
	n := inst.NumPhotos()
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	photos := make([]par.PhotoID, k)
	for i, p := range perm {
		photos[i] = par.PhotoID(p)
	}
	return restrict(inst, photos, budgetFrac)
}

// SubInstanceBySubsets samples whole pre-defined subsets (in random order)
// until roughly targetPhotos distinct photos are collected, then restricts
// the instance to those photos. Unlike SubInstance's uniform photo
// sampling — which shreds large subsets to singletons and makes similarity
// irrelevant — this preserves intra-subset similarity structure, matching
// the coherent ~100-photo collections the paper's experts judged.
func SubInstanceBySubsets(rng *rand.Rand, inst *par.Instance, targetPhotos int, budgetFrac float64) (*par.Instance, []par.PhotoID) {
	if len(inst.Subsets) == 0 {
		return nil, nil
	}
	order := rng.Perm(len(inst.Subsets))
	chosen := map[par.PhotoID]bool{}
	var photos []par.PhotoID
	// Collect at least minSubsets subsets even once the photo target is
	// met: a single large subset has no cross-page sharing structure, and
	// the paper's task (landing pages with intersecting product sets) is
	// about exactly that structure.
	const minSubsets = 3
	for i, qi := range order {
		if len(photos) >= targetPhotos && i >= minSubsets {
			break
		}
		for _, p := range inst.Subsets[qi].Members {
			if !chosen[p] {
				chosen[p] = true
				photos = append(photos, p)
			}
		}
	}
	return restrict(inst, photos, budgetFrac)
}

// restrict builds the sub-instance over exactly the given photos.
func restrict(inst *par.Instance, photos []par.PhotoID, budgetFrac float64) (*par.Instance, []par.PhotoID) {
	oldToNew := make(map[par.PhotoID]par.PhotoID, len(photos))
	origPhotos := make([]par.PhotoID, len(photos))
	sub := &par.Instance{Cost: make([]float64, len(photos))}
	for newID, oldID := range photos {
		oldToNew[oldID] = par.PhotoID(newID)
		origPhotos[newID] = oldID
		sub.Cost[newID] = inst.Cost[oldID]
	}
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		var members []par.PhotoID
		var rel []float64
		var origIdx []int
		for mi, p := range q.Members {
			if newID, ok := oldToNew[p]; ok {
				members = append(members, newID)
				rel = append(rel, q.Relevance[mi])
				origIdx = append(origIdx, mi)
			}
		}
		if len(members) == 0 {
			continue
		}
		sub.Subsets = append(sub.Subsets, par.Subset{
			Name:      q.Name,
			Weight:    q.Weight,
			Members:   members,
			Relevance: rel,
			Sim:       remappedSim{orig: q.Sim, idx: origIdx},
		})
	}
	if len(sub.Subsets) == 0 {
		return nil, nil
	}
	sub.NormalizeRelevance()
	sub.Budget = budgetFrac * sub.TotalCost()
	if err := sub.Finalize(); err != nil {
		return nil, nil
	}
	return sub, origPhotos
}

// remappedSim exposes a subset of another similarity's members.
type remappedSim struct {
	orig par.Similarity
	idx  []int
}

// Len implements par.Similarity.
func (r remappedSim) Len() int { return len(r.idx) }

// Sim implements par.Similarity.
func (r remappedSim) Sim(i, j int) float64 { return r.orig.Sim(r.idx[i], r.idx[j]) }
