// Package lsh implements SimHash — random-hyperplane locality-sensitive
// hashing for cosine similarity (Charikar, STOC 2002) — with banding, as
// used by the paper's sparsification step (Section 4.3) to find (almost)
// all photo pairs with similarity at least τ in roughly linear time instead
// of computing all pairwise similarities.
//
// Each vector is hashed to bands·rows sign bits (one per random
// hyperplane). Two vectors collide in a band when all of that band's bits
// agree; the candidate pairs are those colliding in at least one band. The
// per-bit agreement probability of a pair with cosine similarity s is
// 1 − arccos(s)/π, so the candidate probability is the classic S-curve
// 1 − (1 − pᵖʳ)ᵇ and the (bands, rows) pair tunes where the curve jumps.
package lsh

import (
	"math"
	"math/rand"
	"sort"

	"phocus/internal/embed"
)

// SimHash is a fixed family of random hyperplanes organized in bands.
type SimHash struct {
	planes []embed.Vector
	bands  int
	rows   int
}

// New draws a SimHash family for the given vector dimension with the given
// banding layout. rows must be at most 64 so a band's bits fit one word.
func New(rng *rand.Rand, dim, bands, rows int) *SimHash {
	if bands <= 0 || rows <= 0 || rows > 64 {
		panic("lsh: need bands ≥ 1 and 1 ≤ rows ≤ 64")
	}
	h := &SimHash{bands: bands, rows: rows}
	h.planes = make([]embed.Vector, bands*rows)
	for i := range h.planes {
		h.planes[i] = embed.RandomUnit(rng, dim)
	}
	return h
}

// Bands returns the number of bands.
func (h *SimHash) Bands() int { return h.bands }

// Rows returns the number of rows (bits) per band.
func (h *SimHash) Rows() int { return h.rows }

// Signature returns the banded bit signature of v: one word per band whose
// low Rows bits are the hyperplane signs.
func (h *SimHash) Signature(v embed.Vector) []uint64 {
	sig := make([]uint64, h.bands)
	for b := 0; b < h.bands; b++ {
		var word uint64
		for r := 0; r < h.rows; r++ {
			if embed.Dot(h.planes[b*h.rows+r], v) >= 0 {
				word |= 1 << uint(r)
			}
		}
		sig[b] = word
	}
	return sig
}

// Pair is an unordered candidate pair of vector indices with I < J.
type Pair struct{ I, J int }

// CandidatePairs hashes all vectors and returns the deduplicated pairs that
// collide in at least one band, in deterministic (sorted) order.
func (h *SimHash) CandidatePairs(vectors []embed.Vector) []Pair {
	sigs := make([][]uint64, len(vectors))
	for i, v := range vectors {
		sigs[i] = h.Signature(v)
	}
	seen := make(map[Pair]struct{})
	buckets := make(map[uint64][]int)
	for b := 0; b < h.bands; b++ {
		clear(buckets)
		for i := range vectors {
			buckets[sigs[i][b]] = append(buckets[sigs[i][b]], i)
		}
		for _, members := range buckets {
			for x := 0; x < len(members); x++ {
				for y := x + 1; y < len(members); y++ {
					seen[Pair{I: members[x], J: members[y]}] = struct{}{}
				}
			}
		}
	}
	pairs := make([]Pair, 0, len(seen))
	for p := range seen {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].I != pairs[b].I {
			return pairs[a].I < pairs[b].I
		}
		return pairs[a].J < pairs[b].J
	})
	return pairs
}

// CollisionProbability returns the probability that a pair with cosine
// similarity sim becomes a candidate under the (bands, rows) layout:
// 1 − (1 − p^rows)^bands with p = 1 − arccos(sim)/π.
func CollisionProbability(sim float64, bands, rows int) float64 {
	if sim > 1 {
		sim = 1
	}
	if sim < -1 {
		sim = -1
	}
	p := 1 - math.Acos(sim)/math.Pi
	return 1 - math.Pow(1-math.Pow(p, float64(rows)), float64(bands))
}

// Tune picks a banding layout whose S-curve threshold sits near tau: it
// scans row counts 1..maxRows and band counts 1..maxBands and returns the
// layout minimizing |P(collide at tau) − 0.9| + |P(collide at tau·0.7) −
// 0.1|·0.5, i.e. high recall at the target similarity with candidate volume
// suppressed well below it.
func Tune(tau float64, maxBands, maxRows int) (bands, rows int) {
	bestScore := math.Inf(1)
	bands, rows = 1, 1
	for r := 1; r <= maxRows; r++ {
		for b := 1; b <= maxBands; b++ {
			at := CollisionProbability(tau, b, r)
			below := CollisionProbability(tau*0.7, b, r)
			score := math.Abs(at-0.9) + 0.5*math.Abs(below-0.1)
			if score < bestScore {
				bestScore = score
				bands, rows = b, r
			}
		}
	}
	return bands, rows
}
