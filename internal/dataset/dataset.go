// Package dataset generates the synthetic analogs of the paper's eight
// evaluation datasets (Table 2): five Open-Images-style public datasets
// (P-1K … P-100K), where pre-defined subsets come from image labels with
// confidences, and three e-commerce datasets (EC-Fashion, EC-Electronics,
// EC-Home & Garden), where subsets come from the top-250 queries of a
// simulated query log run through the internal search engine. See DESIGN.md
// for the substitution rationale: the generators reproduce the statistical
// shape that drives algorithm behaviour — subset counts and sizes, skewed
// importance, clustered contextual similarities, byte-valued costs — while
// the solvers only ever see the abstract PAR instance.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"phocus/internal/embed"
	"phocus/internal/imagesim"
	"phocus/internal/par"
)

// Dataset couples a finalized PAR instance with the side information the
// experiments need: the contextualized member embeddings (for LSH
// sparsification) and the raw per-photo embeddings (for the Greedy-NCS
// baseline's global similarity).
type Dataset struct {
	Name string
	// Instance is the finalized PAR instance. Its Budget is initialized to
	// the total cost; use SetBudget before solving.
	Instance *par.Instance
	// CtxVectors holds, per subset, the contextualized embedding of each
	// member (normalized), aligned with Subset.Members.
	CtxVectors [][]embed.Vector
	// Global holds the raw (context-free) embedding of each photo.
	Global []embed.Vector
	// Photos holds the underlying synthetic photos when the generator
	// rendered images (EC datasets); nil for vector-only generators.
	Photos []*imagesim.Photo
}

// SetBudget sets the instance budget (bytes). It re-budgets the finalized
// layout in place rather than finalizing again, so a budget sweep keeps the
// instance's compiled kernel.
func (d *Dataset) SetBudget(b float64) error {
	if b < 0 {
		return fmt.Errorf("dataset: negative budget %g", b)
	}
	return d.Instance.ViewInto(d.Instance, b)
}

// GlobalSim is the non-contextual photo-level similarity for the Greedy-NCS
// baseline: plain cosine of the raw embeddings.
func (d *Dataset) GlobalSim(p1, p2 par.PhotoID) float64 {
	if p1 == p2 {
		return 1
	}
	return embed.CosineSim01(d.Global[p1], d.Global[p2])
}

// vecSim is a par.Similarity computing contextual cosine on demand from
// pre-contextualized unit vectors. It avoids materializing dense matrices
// for large subsets; the sparsify package converts it to SparseSim when the
// solver should iterate neighbours instead.
type vecSim struct {
	vecs []embed.Vector
}

// Len implements par.Similarity.
func (v vecSim) Len() int { return len(v.vecs) }

// Sim implements par.Similarity. Vectors are unit-norm, so cosine is a dot
// product, clamped into [0,1].
func (v vecSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	s := embed.Dot(v.vecs[i], v.vecs[j])
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// poisson draws a Poisson variate by Knuth's method (fine for small means).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	prod := 1.0
	for k := 0; ; k++ {
		prod *= rng.Float64()
		if prod < limit {
			return k
		}
	}
}

// zipfWeights returns weights w_i ∝ 1/(i+1)^s for n ranks.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// sampleIndex draws an index proportionally to weights given their
// cumulative sums (cum[i] = w_0 + ... + w_i).
func sampleIndex(rng *rand.Rand, cum []float64) int {
	r := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	var s float64
	for i, v := range w {
		s += v
		cum[i] = s
	}
	return cum
}

// Summary describes a generated dataset for Table 2-style reports.
type Summary struct {
	Name       string
	Photos     int
	Subsets    int
	TotalBytes float64
}

// Summarize extracts the Table 2 row of a dataset.
func (d *Dataset) Summarize() Summary {
	return Summary{
		Name:       d.Name,
		Photos:     d.Instance.NumPhotos(),
		Subsets:    len(d.Instance.Subsets),
		TotalBytes: d.Instance.TotalCost(),
	}
}

// String renders the summary as one Table 2 row.
func (s Summary) String() string {
	return fmt.Sprintf("%-22s %8d photos %8d subsets %8.1f MB",
		s.Name, s.Photos, s.Subsets, s.TotalBytes/1e6)
}
