package celf

import (
	"cmp"
	"slices"

	"phocus/internal/par"
)

// OnlineBound computes the a-posteriori upper bound on OPT of Leskovec et
// al. (Section 4.2 of the paper) for an arbitrary feasible solution Ŝ:
//
//	OPT ≤ G(Ŝ) + max{ Σ_{p∈T} δ_p(Ŝ) : C(T) ≤ B }
//
// where δ_p(Ŝ) is the marginal gain of p with respect to Ŝ. The inner
// maximum is itself upper-bounded by its fractional-knapsack relaxation
// (sort by δ_p/C(p), fill the budget, take the last item fractionally),
// which is what this function computes. The bound is valid for the output
// of any algorithm, and the certified ratio G(Ŝ)/OnlineBound is typically
// far above the (1−1/e)/2 worst-case guarantee. It is a thin wrapper over
// BoundScratch.OnlineBound with a fresh evaluator holding Ŝ.
func OnlineBound(inst *par.Instance, sol []par.PhotoID) float64 {
	e := par.NewEvaluator(inst)
	for _, p := range sol {
		e.Add(p)
	}
	rest := make([]par.PhotoID, 0, inst.NumPhotos())
	for p := 0; p < inst.NumPhotos(); p++ {
		if id := par.PhotoID(p); !e.Contains(id) {
			rest = append(rest, id)
		}
	}
	var b BoundScratch
	return b.OnlineBound(inst, e, rest)
}

// BoundScratch holds the reusable buffers of the online bound. The zero
// value is ready to use; a BoundScratch belongs to one goroutine at a time.
type BoundScratch struct {
	gains []float64
	margs []marginal
}

// marginal is one photo's term in the fractional knapsack.
type marginal struct {
	gain, cost float64
	photo      par.PhotoID
}

// OnlineBound computes the online bound for the solution Ŝ the evaluator e
// already holds over inst, without rebuilding it: rest must list every photo
// outside Ŝ in ascending ID order (the archived complement). Their marginal
// gains come from one sequential sweep over the kernel's cover index
// (par.Evaluator.AllGainsInto), bit-identical to evaluating each photo's
// gain on its own. Photos with equal gain-per-cost ratios are taken in
// photo-ID order, so the bound is deterministic. Once the buffers have grown
// to the instance's size and the kernel's cover index exists, a call
// allocates nothing.
func (b *BoundScratch) OnlineBound(inst *par.Instance, e *par.Evaluator, rest []par.PhotoID) float64 {
	n := inst.NumPhotos()
	b.gains = slices.Grow(b.gains[:0], n)[:n]
	e.AllGainsInto(b.gains)
	return b.knapsack(inst, e.Score(), rest)
}

// knapsack fills the fractional knapsack over rest's gains, read from
// b.gains by photo ID, on top of the score G(Ŝ).
func (b *BoundScratch) knapsack(inst *par.Instance, score float64, rest []par.PhotoID) float64 {
	margs := b.margs[:0]
	for _, p := range rest {
		if g := b.gains[p]; g > 0 {
			margs = append(margs, marginal{gain: g, cost: inst.Cost[p], photo: p})
		}
	}
	b.margs = margs
	slices.SortFunc(margs, func(x, y marginal) int {
		if l, r := x.gain*y.cost, y.gain*x.cost; l != r {
			if l > r {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.photo, y.photo)
	})
	bound := score
	remaining := inst.Budget
	for _, m := range margs {
		if remaining <= 0 {
			break
		}
		if m.cost <= remaining {
			bound += m.gain
			remaining -= m.cost
			continue
		}
		bound += m.gain * remaining / m.cost
		break
	}
	return bound
}

// CertifiedRatio returns G(Ŝ) / OnlineBound(Ŝ), a lower bound on the
// solution's true performance ratio G(Ŝ)/OPT. It returns 1 for instances
// whose optimum is 0 (empty bound).
func CertifiedRatio(inst *par.Instance, sol par.Solution) float64 {
	bound := OnlineBound(inst, sol.Photos)
	if bound <= 0 {
		return 1
	}
	return sol.Score / bound
}
