package main

import (
	"fmt"
	"math"
	"slices"

	"phocus/internal/par"
)

// answer is one solve result as the correctness gate sees it, whether it
// came back over HTTP or from an in-process phocus.Result.
type answer struct {
	Retain  []par.PhotoID
	Archive []par.PhotoID
	Score   float64
	Cost    float64
	Budget  float64
	Bound   float64
}

// gate checks every op's answer outside the timed region:
//
//   - retain ∪ archive is every photo, and the two are disjoint;
//   - S0 ⊆ retain;
//   - cost ≤ budget, and cost is the retained photos' summed size;
//   - score equals par.Score of the retained set on the benchmark's copy;
//   - score ≤ the online bound;
//   - a repeated (archive, budget) pair gives an identical answer.
//
// par.Score scans every subset pair, so it runs once per distinct pair; a
// repeat is verified by being identical to the verified first answer.
type gate struct {
	first    map[string]answer
	failures []string
	ratios   []float64 // score / online bound, one per checked op
}

func newGate() *gate { return &gate{first: map[string]answer{}} }

// check verifies one op's answer for the (archive, budget) pair named by key
// against ref, the benchmark's copy of that archive. It reports whether the
// answer passed; failures are kept for the report.
func (g *gate) check(key string, ref *par.Instance, a answer) bool {
	err := g.verify(key, ref, a)
	if err != nil {
		g.failures = append(g.failures, fmt.Sprintf("%s: %v", key, err))
		return false
	}
	if a.Bound > 0 {
		g.ratios = append(g.ratios, a.Score/a.Bound)
	}
	return true
}

func (g *gate) verify(key string, ref *par.Instance, a answer) error {
	if prev, ok := g.first[key]; ok {
		if !sameAnswer(prev, a) {
			return fmt.Errorf("repeated pair answered differently (score %v then %v, %d then %d photos)",
				prev.Score, a.Score, len(prev.Retain), len(a.Retain))
		}
		return nil
	}
	n := ref.NumPhotos()
	side := make([]int8, n)
	var cost float64
	for _, p := range a.Retain {
		if int(p) < 0 || int(p) >= n || side[p] != 0 {
			return fmt.Errorf("retain lists photo %d out of range or twice", p)
		}
		side[p] = 1
		cost += ref.Cost[p]
	}
	for _, p := range a.Archive {
		if int(p) < 0 || int(p) >= n || side[p] != 0 {
			return fmt.Errorf("archive lists photo %d out of range, twice, or also retained", p)
		}
		side[p] = 2
	}
	if len(a.Retain)+len(a.Archive) != n {
		return fmt.Errorf("retain (%d) and archive (%d) do not cover %d photos", len(a.Retain), len(a.Archive), n)
	}
	for _, p := range ref.Retained {
		if side[p] != 1 {
			return fmt.Errorf("S0 photo %d not retained", p)
		}
	}
	if a.Cost > a.Budget*(1+1e-9) {
		return fmt.Errorf("cost %v exceeds budget %v", a.Cost, a.Budget)
	}
	if !near(cost, a.Cost) {
		return fmt.Errorf("reported cost %v, retained photos sum to %v", a.Cost, cost)
	}
	if want := par.Score(ref, a.Retain); !near(want, a.Score) {
		return fmt.Errorf("score %v, par.Score gives %v", a.Score, want)
	}
	if a.Score > a.Bound*(1+1e-9) {
		return fmt.Errorf("score %v exceeds online bound %v", a.Score, a.Bound)
	}
	g.first[key] = a
	return nil
}

// near compares two sums of the same terms added in different orders.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func sameAnswer(a, b answer) bool {
	return slices.Equal(a.Retain, b.Retain) && slices.Equal(a.Archive, b.Archive) &&
		a.Score == b.Score && a.Cost == b.Cost && a.Budget == b.Budget && a.Bound == b.Bound
}
