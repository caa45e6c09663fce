package par

import (
	"runtime"

	"phocus/internal/pool"
)

// Evaluator incrementally maintains the objective value of a growing
// solution. It is the workhorse shared by every solver: computing the
// marginal gain of a candidate photo touches only the subsets containing it,
// and within each subset only the members with positive similarity to it.
//
// The evaluator tracks, for every (subset, member) pair, the similarity of
// the member's current nearest neighbour in the solution ("best" value,
// 0 while the solution contains no member of the subset). Adding photo p
// raises the best value of every member whose similarity to p exceeds it.
// Gains and adds run the instance's compiled Kernel (see Instance.Kernel)
// over one flat best slot per kernel row.
type Evaluator struct {
	inst *Instance
	kern *Kernel // inst.Kernel() at construction
	// flat holds one best slot per kernel row: SIM(q, p, NN(q,p,S)) for the
	// (subset, member) pair the row stands for.
	flat  []float64
	inSol []bool
	sol   []PhotoID
	cost  float64
	score float64

	// gainEvals counts Gain/Add calls, the unit of work the paper uses to
	// compare algorithm efficiency (Ω(B·n⁴) vs O(B·n)).
	gainEvals int64
}

// NewEvaluator returns an evaluator for the empty solution. The instance
// must be finalized; its kernel is compiled here if nothing compiled or
// attached one before. Retained photos (S0) are NOT pre-added; solvers add
// them explicitly so the gain accounting stays uniform — use Seed for that.
func NewEvaluator(inst *Instance) *Evaluator {
	kern := inst.Kernel()
	return &Evaluator{
		inst:  inst,
		kern:  kern,
		flat:  make([]float64, kern.TotalRows()),
		inSol: make([]bool, inst.NumPhotos()),
	}
}

// ResetFor rebinds the evaluator to inst and clears it back to the empty
// solution, reusing every buffer when shapes match — the allocation-free
// solve path resets one pooled evaluator per run instead of constructing a
// fresh one. inst must be finalized; when its row or photo count differs
// from the evaluator's, the evaluator is rebuilt from scratch instead.
func (e *Evaluator) ResetFor(inst *Instance) {
	kern := inst.Kernel()
	if kern.TotalRows() != len(e.flat) || inst.NumPhotos() != len(e.inSol) {
		*e = *NewEvaluator(inst)
		return
	}
	e.inst, e.kern = inst, kern
	clear(e.flat)
	clear(e.inSol)
	e.sol = e.sol[:0]
	e.cost, e.score, e.gainEvals = 0, 0, 0
}

// Seed adds all retained photos S0 to the solution and returns the score
// they contribute. Budget is not checked here: Instance.Finalize already
// guarantees C(S0) ≤ B.
func (e *Evaluator) Seed() float64 {
	var gained float64
	for _, p := range e.inst.Retained {
		if !e.inSol[p] {
			gained += e.Add(p)
		}
	}
	return gained
}

// Gain returns the marginal gain G(S ∪ {p}) − G(S) of adding p to the
// current solution, without modifying it. Adding a photo already in the
// solution gains 0.
func (e *Evaluator) Gain(p PhotoID) float64 {
	e.gainEvals++
	return e.gainOf(p)
}

// GainsInto writes the marginal gain of every photo in ps against the
// current solution into dst, which must have len(ps) slots, fanning the
// evaluations out over GOMAXPROCS goroutines in chunks, so a batch costs
// one closure dispatch per chunk rather than per photo. Each evaluation
// follows the read-only Gain path — it touches the evaluator's state but
// never mutates it — so concurrent evaluations are safe as long as no
// Add/Seed runs concurrently. dst[i] is exactly what Gain(ps[i]) would
// return sequentially: the per-photo summation order is unchanged, so
// results are bit-identical for every GOMAXPROCS. The gain-eval counter
// advances by len(ps). At GOMAXPROCS 1 the loop runs inline and allocates
// nothing.
func (e *Evaluator) GainsInto(dst []float64, ps []PhotoID) {
	if len(dst) != len(ps) {
		panic("par: GainsInto dst length does not match ps")
	}
	if runtime.GOMAXPROCS(0) == 1 {
		for i, p := range ps {
			dst[i] = e.gainOf(p)
		}
	} else {
		pool.ForEachChunk(len(ps), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[i] = e.gainOf(ps[i])
			}
		})
	}
	e.gainEvals += int64(len(ps))
}

// AllGainsInto writes every photo's marginal gain against the current
// solution into dst, which must have one slot per photo: dst[p] is exactly
// what Gain(p) would return, 0 for photos in the solution. With the
// kernel's cover index (Kernel.Covers, built by the kernel's second such
// pass) it makes one sequential sweep that pushes from slots and reads only
// the entries above each slot's best value; a kernel's first pass, and
// every pass on a kernel the index refuses, pulls photo by photo. Either way
// the bits are Gain's, and once the index exists a call allocates nothing.
// It counts one gain evaluation per photo, and like Gains it must not run
// concurrently with Add or Seed.
func (e *Evaluator) AllGainsInto(dst []float64) {
	if len(dst) != len(e.inSol) {
		panic("par: AllGainsInto dst length does not match the photo count")
	}
	if c := e.kern.sweepIndex(); c != nil {
		e.kern.sweep(c, e.flat, dst)
	} else {
		for p := range dst {
			dst[p] = e.gainOf(PhotoID(p))
		}
	}
	e.gainEvals += int64(len(dst))
}

// gainOf is the shared read-only gain computation behind Gain and Gains. It
// must not mutate any evaluator state: Gains calls it from multiple
// goroutines.
func (e *Evaluator) gainOf(p PhotoID) float64 {
	if e.inSol[p] {
		return 0
	}
	return e.kern.gain(e.flat, p)
}

// Add inserts p into the solution and returns the realized marginal gain.
// The caller is responsible for budget checks.
func (e *Evaluator) Add(p PhotoID) float64 {
	e.gainEvals++
	if e.inSol[p] {
		return 0
	}
	gain := e.kern.add(e.flat, p)
	e.inSol[p] = true
	e.sol = append(e.sol, p)
	e.cost += e.inst.Cost[p]
	e.score += gain
	return gain
}

// Contains reports whether p is in the current solution.
func (e *Evaluator) Contains(p PhotoID) bool { return e.inSol[p] }

// Score returns G(S) for the current solution.
func (e *Evaluator) Score() float64 { return e.score }

// Cost returns C(S) for the current solution.
func (e *Evaluator) Cost() float64 { return e.cost }

// Remaining returns the unused budget B − C(S).
func (e *Evaluator) Remaining() float64 { return e.inst.Budget - e.cost }

// Fits reports whether p can be added without exceeding the budget.
func (e *Evaluator) Fits(p PhotoID) bool {
	return e.cost+e.inst.Cost[p] <= e.inst.Budget+budgetSlack(e.inst.Budget)
}

// GainEvals returns the number of marginal-gain evaluations performed so
// far (Gain and Add calls combined).
func (e *Evaluator) GainEvals() int64 { return e.gainEvals }

// Solution returns a copy of the current solution as a Solution value.
func (e *Evaluator) Solution() Solution {
	photos := make([]PhotoID, len(e.sol))
	copy(photos, e.sol)
	return Solution{Photos: photos, Score: e.score, Cost: e.cost}
}

// SolutionView returns the current solution without copying the photo list.
// The returned Photos alias the evaluator's internal buffer: they are valid
// only until the next Add, Seed or ResetFor, and must not be modified. The
// allocation-free solve path reads through it and copies into caller-owned
// storage itself; everyone else wants Solution.
func (e *Evaluator) SolutionView() Solution {
	return Solution{Photos: e.sol, Score: e.score, Cost: e.cost}
}

// Clone returns an independent copy of the evaluator sharing the instance.
// Branch-and-bound and enumeration solvers use it to explore alternatives.
func (e *Evaluator) Clone() *Evaluator {
	c := &Evaluator{
		inst:      e.inst,
		kern:      e.kern,
		flat:      make([]float64, len(e.flat)),
		inSol:     make([]bool, len(e.inSol)),
		sol:       make([]PhotoID, len(e.sol)),
		cost:      e.cost,
		score:     e.score,
		gainEvals: e.gainEvals,
	}
	copy(c.flat, e.flat)
	copy(c.inSol, e.inSol)
	copy(c.sol, e.sol)
	return c
}

// ScoreFast computes G(S) through the incremental evaluator: cost
// proportional to the solution's subset-row touches instead of Score's
// all-pairs scan, which matters on instances with large subsets. Score
// remains the independent reference implementation the evaluator (and
// therefore this function) is tested against.
func ScoreFast(inst *Instance, s []PhotoID) float64 {
	e := NewEvaluator(inst)
	for _, p := range s {
		e.Add(p)
	}
	return e.Score()
}

// CoverageVector computes, for every (subset, member) pair, the similarity
// of the member's nearest neighbour within the given photo set:
// out[qi][mi] = SIM(q, p_mi, NN(q, p_mi, S)), 0 where S covers nothing.
// It is the per-item decomposition of Score, used by serving simulations
// to value individual accesses.
func CoverageVector(inst *Instance, s []PhotoID) [][]float64 {
	e := NewEvaluator(inst)
	for _, p := range s {
		e.Add(p)
	}
	out := make([][]float64, len(inst.Subsets))
	row := 0
	for qi := range inst.Subsets {
		out[qi] = make([]float64, len(inst.Subsets[qi].Members))
		if e.kern.Canonical() {
			// Rows run subset by subset, member by member.
			row += copy(out[qi], e.flat[row:])
			continue
		}
		// Under a mutation overlay appended rows sit at the tail of the flat
		// array, so map each (subset, member) slot through the row lookup.
		for mi := range out[qi] {
			// Tombstoned rows can carry stale best values raised through
			// mirror entries of slot weight 0; a removed member covers nothing.
			if !e.kern.RowDead(qi, mi) {
				out[qi][mi] = e.flat[e.kern.RowOf(qi, mi)]
			}
		}
	}
	return out
}

// Score computes G(S) for an arbitrary solution from first principles: for
// every subset member it scans the whole subset for the nearest neighbour in
// S. It is the reference implementation the incremental evaluator is tested
// against, and the scorer used to evaluate baseline selections under the
// true objective.
func Score(inst *Instance, s []PhotoID) float64 {
	inSol := make([]bool, inst.NumPhotos())
	for _, p := range s {
		inSol[p] = true
	}
	var total float64
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		var qScore float64
		for mi := range q.Members {
			var best float64
			for mj, pj := range q.Members {
				if !inSol[pj] {
					continue
				}
				if sim := q.Sim.Sim(mi, mj); sim > best {
					best = sim
				}
			}
			qScore += q.Relevance[mi] * best
		}
		total += q.Weight * qScore
	}
	return total
}
