package lsh

import (
	"math"
	"math/rand"
	"testing"

	"phocus/internal/embed"
)

func TestSignatureDeterministicAndSelfColliding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := New(rng, 16, 8, 6)
	v := embed.RandomUnit(rng, 16)
	s1 := h.Signature(v)
	s2 := h.Signature(v)
	if len(s1) != 8 {
		t.Fatalf("signature has %d bands, want 8", len(s1))
	}
	for b := range s1 {
		if s1[b] != s2[b] {
			t.Fatal("Signature not deterministic")
		}
		if s1[b]>>6 != 0 {
			t.Fatalf("band %d uses more than rows bits: %b", b, s1[b])
		}
	}
}

func TestIdenticalVectorsAlwaysCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := New(rng, 8, 4, 8)
	v := embed.RandomUnit(rng, 8)
	pairs := h.CandidatePairs([]embed.Vector{v, embed.Clone(v), embed.RandomUnit(rng, 8)})
	found := false
	for _, p := range pairs {
		if p == (Pair{0, 1}) {
			found = true
		}
	}
	if !found {
		t.Error("identical vectors did not collide in any band")
	}
}

func TestCandidatePairsSortedAndDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := New(rng, 8, 16, 2) // many bands: plenty of duplicate collisions
	vs := make([]embed.Vector, 12)
	for i := range vs {
		vs[i] = embed.RandomUnit(rng, 8)
	}
	pairs := h.CandidatePairs(vs)
	for i, p := range pairs {
		if p.I >= p.J {
			t.Fatalf("pair %v not ordered", p)
		}
		if i > 0 {
			prev := pairs[i-1]
			if prev == p {
				t.Fatalf("duplicate pair %v", p)
			}
			if p.I < prev.I || (p.I == prev.I && p.J < prev.J) {
				t.Fatalf("pairs not sorted: %v after %v", p, prev)
			}
		}
	}
}

// High-similarity pairs must be recalled with high probability while random
// pairs stay mostly uncollided: the core LSH contract the sparsifier relies
// on.
func TestRecallAndFiltering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 64
	bands, rows := Tune(0.85, 32, 16)
	h := New(rng, dim, bands, rows)

	// 40 clusters of 3 near-duplicates (intra sim ≳ 0.9) plus 80 random
	// singletons.
	var vs []embed.Vector
	type pairKey struct{ i, j int }
	similar := map[pairKey]bool{}
	for c := 0; c < 40; c++ {
		proto := embed.RandomUnit(rng, dim)
		base := len(vs)
		for k := 0; k < 3; k++ {
			// Per-dim noise 0.03 over 64 dims keeps intra-cluster cosine
			// around 0.93, comfortably above the 0.85 threshold.
			vs = append(vs, embed.Perturb(rng, proto, 0.03))
		}
		for a := base; a < base+3; a++ {
			for b := a + 1; b < base+3; b++ {
				if embed.Cosine(vs[a], vs[b]) >= 0.85 {
					similar[pairKey{a, b}] = true
				}
			}
		}
	}
	for k := 0; k < 80; k++ {
		vs = append(vs, embed.RandomUnit(rng, dim))
	}

	pairs := h.CandidatePairs(vs)
	candidate := map[pairKey]bool{}
	for _, p := range pairs {
		candidate[pairKey{p.I, p.J}] = true
	}

	var recalled int
	for k := range similar {
		if candidate[k] {
			recalled++
		}
	}
	if len(similar) == 0 {
		t.Fatal("test setup produced no similar pairs")
	}
	recall := float64(recalled) / float64(len(similar))
	if recall < 0.9 {
		t.Errorf("recall of ≥0.85-similar pairs = %.2f, want ≥ 0.9", recall)
	}

	total := len(vs) * (len(vs) - 1) / 2
	if len(pairs) > total/3 {
		t.Errorf("candidate set has %d of %d pairs; LSH filtered almost nothing", len(pairs), total)
	}
}

func TestCollisionProbability(t *testing.T) {
	// Monotone in similarity.
	prev := -1.0
	for _, s := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
		p := CollisionProbability(s, 8, 8)
		if p < prev {
			t.Errorf("collision probability not monotone at sim %g", s)
		}
		prev = p
	}
	if p := CollisionProbability(1, 4, 4); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(collide | sim=1) = %g, want 1", p)
	}
	// Orthogonal vectors: per-bit agreement 1/2.
	want := 1 - math.Pow(1-math.Pow(0.5, 4), 3)
	if p := CollisionProbability(0, 3, 4); math.Abs(p-want) > 1e-12 {
		t.Errorf("P(collide | sim=0) = %g, want %g", p, want)
	}
	// Out-of-range similarities are clamped rather than NaN.
	if p := CollisionProbability(1.2, 2, 2); math.IsNaN(p) {
		t.Error("CollisionProbability(1.2) is NaN")
	}
}

func TestTune(t *testing.T) {
	bands, rows := Tune(0.8, 32, 16)
	if bands < 1 || rows < 1 {
		t.Fatalf("Tune returned %d bands, %d rows", bands, rows)
	}
	at := CollisionProbability(0.8, bands, rows)
	below := CollisionProbability(0.5, bands, rows)
	if at < 0.7 {
		t.Errorf("tuned layout recalls only %.2f at the target similarity", at)
	}
	if below >= at {
		t.Errorf("tuned layout does not discriminate: P(0.5)=%.2f ≥ P(0.8)=%.2f", below, at)
	}
}

func TestNewPanicsOnBadLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, layout := range [][2]int{{0, 4}, {4, 0}, {4, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", layout)
				}
			}()
			New(rng, 8, layout[0], layout[1])
		}()
	}
}
