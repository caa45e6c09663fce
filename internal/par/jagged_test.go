package par

// jaggedEvaluator is the reference marginal-gain evaluator the compiled
// kernel is held to: it walks each subset's Similarity directly (its
// neighbour rows when it is a NeighborLister, every member's Sim otherwise) over
// per-subset best arrays. It shares no code with Kernel, so
// TestKernelDifferential and FuzzKernelVsReference compare the production
// Evaluator against an independent implementation with ==.
type jaggedEvaluator struct {
	inst  *Instance
	best  [][]float64 // per subset, per member: SIM(q, p, NN(q,p,S))
	inSol []bool
	score float64
}

func newJaggedEvaluator(inst *Instance) *jaggedEvaluator {
	e := &jaggedEvaluator{
		inst:  inst,
		best:  make([][]float64, len(inst.Subsets)),
		inSol: make([]bool, inst.NumPhotos()),
	}
	for qi := range inst.Subsets {
		e.best[qi] = make([]float64, len(inst.Subsets[qi].Members))
	}
	return e
}

// Gain returns the marginal gain of adding p without modifying the state.
func (e *jaggedEvaluator) Gain(p PhotoID) float64 { return e.visit(p, false) }

// Add inserts p and returns its realized marginal gain.
func (e *jaggedEvaluator) Add(p PhotoID) float64 {
	gain := e.visit(p, true)
	e.inSol[p] = true
	e.score += gain
	return gain
}

// Seed adds every retained photo not yet in the solution.
func (e *jaggedEvaluator) Seed() float64 {
	var gained float64
	for _, p := range e.inst.Retained {
		if !e.inSol[p] {
			gained += e.Add(p)
		}
	}
	return gained
}

func (e *jaggedEvaluator) Score() float64 { return e.score }

// visit sums p's gain term by term in the order the kernel is compiled in,
// raising the best values on the way when add is set.
func (e *jaggedEvaluator) visit(p PhotoID, add bool) float64 {
	if e.inSol[p] {
		return 0
	}
	var gain float64
	for _, oc := range e.inst.Occurrences(p) {
		q := &e.inst.Subsets[oc.Subset]
		best := e.best[oc.Subset]
		term := func(mi int, s float64) {
			if d := s - best[mi]; d > 0 {
				gain += q.Weight * q.Relevance[mi] * d
				if add {
					best[mi] = s
				}
			}
		}
		if nl, ok := q.Sim.(NeighborLister); ok {
			for _, nb := range nl.AppendNeighbors(nil, oc.Index) {
				term(nb.Index, nb.Sim)
			}
			continue
		}
		for mi := range q.Members {
			term(mi, q.Sim.Sim(mi, oc.Index))
		}
	}
	return gain
}

// Clone returns an independent copy sharing the instance.
func (e *jaggedEvaluator) Clone() *jaggedEvaluator {
	c := &jaggedEvaluator{
		inst:  e.inst,
		best:  make([][]float64, len(e.best)),
		inSol: append([]bool(nil), e.inSol...),
		score: e.score,
	}
	for qi := range e.best {
		c.best[qi] = append([]float64(nil), e.best[qi]...)
	}
	return c
}
