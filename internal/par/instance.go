package par

import (
	"errors"
	"fmt"
	"math"
)

// PhotoID identifies a photo by its dense index in an Instance.
type PhotoID int32

// Subset is one pre-defined subset q ∈ Q: an importance weight, the member
// photos, their relevance scores, and the contextualized similarity.
type Subset struct {
	// Name is a human-readable label ("Bikes", a landing-page title, a query).
	Name string
	// Weight is W(q) > 0, the relative importance of the subset.
	Weight float64
	// Members lists the photos in q by ID.
	Members []PhotoID
	// Relevance holds R(q, p) for each member, aligned with Members.
	// Validate checks that the scores are nonnegative and sum to 1.
	Relevance []float64
	// Sim is the contextual similarity over member indices.
	Sim Similarity
}

// Instance is a complete PAR input ⟨P, S0, Q, C, W, R, SIM, B⟩. Construct it
// by filling the exported fields, then call Finalize before handing it to a
// solver.
type Instance struct {
	// Cost holds C(p) in bytes for each photo; len(Cost) is n = |P|.
	Cost []float64
	// Retained is S0, the photos that every solution must contain.
	Retained []PhotoID
	// Subsets is Q together with W, R and SIM.
	Subsets []Subset
	// Budget is B, the bound on the total cost of the solution, in bytes.
	Budget float64

	// occ maps each photo to its occurrences across subsets; built by
	// Finalize.
	occ [][]Occurrence
	// kc holds the compiled gain kernel of this finalized layout; Finalize
	// and WithKernel allocate a fresh cell and ViewInto copies share it (see
	// Kernel).
	kc *kernelCell
	// retainedSet marks membership in S0; built by Finalize.
	retainedSet []bool
	// retainedCost is C(S0); built by Finalize.
	retainedCost float64
}

// Occurrence records that a photo is the Index-th member of subset Q.
type Occurrence struct {
	Subset int // index into Instance.Subsets
	Index  int // index into Subset.Members
}

// NumPhotos returns n = |P|.
func (in *Instance) NumPhotos() int { return len(in.Cost) }

// TotalCost returns C(P), the cost of keeping every photo.
func (in *Instance) TotalCost() float64 {
	var sum float64
	for _, c := range in.Cost {
		sum += c
	}
	return sum
}

// TotalWeight returns Σ_q W(q), the maximum attainable objective value
// (reached by any solution containing at least one perfect representative
// for every member of every subset, e.g. S = P).
func (in *Instance) TotalWeight() float64 {
	var sum float64
	for i := range in.Subsets {
		sum += in.Subsets[i].Weight
	}
	return sum
}

// RetainedCost returns C(S0). Finalize must have been called.
func (in *Instance) RetainedCost() float64 { return in.retainedCost }

// IsRetained reports whether p ∈ S0. Finalize must have been called.
func (in *Instance) IsRetained(p PhotoID) bool { return in.retainedSet[p] }

// Occurrences returns the subsets containing p and p's member index in each.
// Finalize must have been called. The returned slice is owned by the
// instance and must not be modified.
func (in *Instance) Occurrences(p PhotoID) []Occurrence { return in.occ[p] }

// Finalize validates the instance and builds the photo→subset occurrence
// index required by Evaluator. It must be called once after construction and
// again after any structural mutation.
func (in *Instance) Finalize() error {
	if err := in.validate(); err != nil {
		return err
	}
	// A structural mutation invalidates any compiled kernel's layout, so the
	// finalized layout starts with an empty cell; Kernel compiles into it on
	// first use.
	in.kc = &kernelCell{}
	n := in.NumPhotos()
	in.occ = make([][]Occurrence, n)
	for qi := range in.Subsets {
		q := &in.Subsets[qi]
		for mi, p := range q.Members {
			in.occ[p] = append(in.occ[p], Occurrence{Subset: qi, Index: mi})
		}
	}
	in.retainedSet = make([]bool, n)
	in.retainedCost = 0
	for _, p := range in.Retained {
		if !in.retainedSet[p] {
			in.retainedSet[p] = true
			in.retainedCost += in.Cost[p]
		}
	}
	if in.retainedCost > in.Budget {
		return &overBudgetError{in.retainedCost, in.Budget}
	}
	return nil
}

// ErrRetainedOverBudget is wrapped by the error Finalize and ViewInto return
// when the retained set S0 costs more than the budget. errors.Is on it tells
// an infeasible budget apart from a malformed instance at any layer above.
var ErrRetainedOverBudget = errors.New("par: retained set S0 exceeds the budget")

// overBudgetError is the S0 > B failure with its figures.
type overBudgetError struct{ cost, budget float64 }

func (e *overBudgetError) Error() string {
	return fmt.Sprintf("par: retained set S0 costs %g bytes, exceeding budget %g", e.cost, e.budget)
}

func (e *overBudgetError) Unwrap() error { return ErrRetainedOverBudget }

// ViewInto initializes dst as a budget view over in's finalized state: the
// same photos, subsets, retained set and occurrence index, with Budget
// replaced. Finalize's validation and occurrence rebuild are both
// budget-independent, so a hot solve path can stamp out per-run views
// without re-running either (or allocating). The view shares in's internal
// index structures, its kernel cell included, so every view runs the one
// kernel of in's layout; it must not outlive a structural mutation of in.
func (in *Instance) ViewInto(dst *Instance, budget float64) error {
	if in.occ == nil {
		return fmt.Errorf("par: ViewInto before Finalize")
	}
	if in.retainedCost > budget {
		return &overBudgetError{in.retainedCost, budget}
	}
	*dst = *in
	dst.Budget = budget
	return nil
}

// relevanceTolerance is the permitted deviation of a subset's relevance sum
// from 1, absorbing accumulated floating-point error from normalization.
const relevanceTolerance = 1e-6

func (in *Instance) validate() error {
	n := in.NumPhotos()
	if n == 0 {
		return fmt.Errorf("par: instance has no photos")
	}
	if in.Budget < 0 {
		return fmt.Errorf("par: negative budget %g", in.Budget)
	}
	for p, c := range in.Cost {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("par: photo %d has invalid cost %g", p, c)
		}
	}
	for _, p := range in.Retained {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("par: retained photo %d out of range [0,%d)", p, n)
		}
	}
	for qi := range in.Subsets {
		q := &in.Subsets[qi]
		if q.Weight <= 0 || math.IsNaN(q.Weight) || math.IsInf(q.Weight, 0) {
			return fmt.Errorf("par: subset %d (%q) has invalid weight %g", qi, q.Name, q.Weight)
		}
		if len(q.Members) == 0 {
			return fmt.Errorf("par: subset %d (%q) is empty", qi, q.Name)
		}
		if len(q.Relevance) != len(q.Members) {
			return fmt.Errorf("par: subset %d (%q) has %d members but %d relevance scores",
				qi, q.Name, len(q.Members), len(q.Relevance))
		}
		if q.Sim == nil {
			return fmt.Errorf("par: subset %d (%q) has nil similarity", qi, q.Name)
		}
		if q.Sim.Len() != len(q.Members) {
			return fmt.Errorf("par: subset %d (%q) has %d members but similarity over %d",
				qi, q.Name, len(q.Members), q.Sim.Len())
		}
		seen := make(map[PhotoID]bool, len(q.Members))
		var relSum float64
		for mi, p := range q.Members {
			if p < 0 || int(p) >= n {
				return fmt.Errorf("par: subset %d (%q) member %d out of range", qi, q.Name, p)
			}
			if seen[p] {
				return fmt.Errorf("par: subset %d (%q) contains photo %d twice", qi, q.Name, p)
			}
			seen[p] = true
			r := q.Relevance[mi]
			if r < 0 || math.IsNaN(r) {
				return fmt.Errorf("par: subset %d (%q) has invalid relevance %g for photo %d", qi, q.Name, r, p)
			}
			relSum += r
		}
		if math.Abs(relSum-1) > relevanceTolerance {
			return fmt.Errorf("par: subset %d (%q) relevance sums to %g, want 1", qi, q.Name, relSum)
		}
	}
	return nil
}

// NormalizeRelevance rescales each subset's relevance scores to sum to 1, as
// the model requires. Subsets whose scores sum to 0 get uniform relevance.
// Call it before Finalize when scores come from an unnormalized source (a
// search engine, label confidences, manual tags).
func (in *Instance) NormalizeRelevance() {
	for qi := range in.Subsets {
		q := &in.Subsets[qi]
		var sum float64
		for _, r := range q.Relevance {
			sum += r
		}
		if sum <= 0 {
			u := 1 / float64(len(q.Relevance))
			for i := range q.Relevance {
				q.Relevance[i] = u
			}
			continue
		}
		for i := range q.Relevance {
			q.Relevance[i] /= sum
		}
	}
}

// Solution is the output of a PAR solver: the retained photos with their
// objective value and total cost.
type Solution struct {
	Photos []PhotoID
	Score  float64
	Cost   float64
}

// Feasible reports whether s satisfies the instance's constraints:
// C(s) ≤ B, S0 ⊆ s, and no duplicate or out-of-range photos.
func (in *Instance) Feasible(s []PhotoID) bool {
	return in.FeasibleBuf(s, make([]bool, in.NumPhotos()))
}

// FeasibleBuf is Feasible with a caller-owned duplicate-marker buffer
// (cleared on entry) so hot paths can check feasibility without allocating;
// a buffer shorter than NumPhotos is replaced by a fresh one.
func (in *Instance) FeasibleBuf(s []PhotoID, seen []bool) bool {
	n := in.NumPhotos()
	if len(seen) < n {
		seen = make([]bool, n)
	}
	seen = seen[:n]
	clear(seen)
	var cost float64
	for _, p := range s {
		if p < 0 || int(p) >= n || seen[p] {
			return false
		}
		seen[p] = true
		cost += in.Cost[p]
	}
	if cost > in.Budget+budgetSlack(in.Budget) {
		return false
	}
	for _, p := range in.Retained {
		if !seen[p] {
			return false
		}
	}
	return true
}

// budgetSlack returns the tolerance used when comparing accumulated float
// costs against the budget, proportional to the budget's magnitude.
func budgetSlack(budget float64) float64 { return 1e-9 * (1 + math.Abs(budget)) }
