package storage

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"phocus/internal/celf"
	"phocus/internal/par"
)

func TestIngestAndApply(t *testing.T) {
	s := New(Config{CacheCapacity: 3, CacheLatency: time.Millisecond, ArchiveLatency: 10 * time.Millisecond})
	for p, size := range []float64{1, 2, 3} {
		if err := s.Ingest(par.PhotoID(p), size); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ingest(0, 1); err == nil {
		t.Error("double ingest accepted")
	}
	if err := s.Ingest(9, 0); err == nil {
		t.Error("zero size accepted")
	}
	if err := s.Apply([]par.PhotoID{0, 1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if s.CacheUsage() != 3 {
		t.Errorf("CacheUsage = %g, want 3", s.CacheUsage())
	}
	if !s.Cached(0) || !s.Cached(1) || s.Cached(2) {
		t.Error("cache membership wrong")
	}
	if err := s.Apply([]par.PhotoID{2, 0}); err == nil {
		t.Error("over-capacity Apply accepted")
	}
	// Failed Apply must not clobber the previous pin set.
	if !s.Cached(0) || s.Cached(2) {
		t.Error("failed Apply mutated cache")
	}
	if err := s.Apply([]par.PhotoID{42}); err == nil {
		t.Error("unknown photo accepted")
	}
}

func TestGetStats(t *testing.T) {
	s := New(Config{CacheCapacity: 10, CacheLatency: time.Millisecond, ArchiveLatency: 50 * time.Millisecond})
	s.Ingest(0, 1)
	s.Ingest(1, 1)
	s.Apply([]par.PhotoID{0})
	if _, err := s.Get(7); err == nil {
		t.Error("Get of unknown photo succeeded")
	}
	hit, err := s.Get(0)
	if err != nil || !hit {
		t.Fatalf("Get(0) = %v, %v; want cache hit", hit, err)
	}
	hit, err = s.Get(1)
	if err != nil || hit {
		t.Fatalf("Get(1) = %v, %v; want archive miss", hit, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.SimulatedLatency != 51*time.Millisecond {
		t.Errorf("latency %v, want 51ms", st.SimulatedLatency)
	}
	if math.Abs(st.HitRatio()-0.5) > 1e-12 {
		t.Errorf("hit ratio %g", st.HitRatio())
	}
	s.ResetStats()
	if s.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty hit ratio should be 0")
	}
}

func TestIngestInstance(t *testing.T) {
	inst := par.Figure1Instance()
	s := New(DefaultConfig(inst.Budget * 1e6))
	if err := s.IngestInstance(inst); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < inst.NumPhotos(); p++ {
		if _, err := s.Get(par.PhotoID(p)); err != nil {
			t.Fatalf("photo %d not ingested", p)
		}
	}
}

func TestAccessPatternDistribution(t *testing.T) {
	inst := par.Figure1Instance()
	rng := rand.New(rand.NewSource(1))
	accesses := AccessPattern(rng, inst, 50_000)
	counts := map[par.PhotoID]int{}
	for _, p := range accesses {
		counts[p]++
	}
	// p1 (ID 0) carries W·R mass 9×0.5 = 4.5, the largest of any photo
	// (p6's is 1×0.3 + 3×1 + 1×0.7 = 4.0): expected share 4.5/14 ≈ 0.321.
	for p, c := range counts {
		if p != 0 && c > counts[0] {
			t.Fatalf("photo %d accessed more than p1 (%d > %d)", p, c, counts[0])
		}
	}
	share := float64(counts[0]) / float64(len(accesses))
	if math.Abs(share-4.5/14) > 0.02 {
		t.Errorf("p1 access share %.3f, want ≈ %.3f", share, 4.5/14)
	}
	if AccessPattern(rng, inst, 0) != nil {
		t.Error("n=0 should return nil")
	}
}

// A better PAR solution should yield a better cache hit ratio under the
// instance's own access pattern — the end-to-end story of the system.
func TestSolutionQualityImprovesHitRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := par.Random(rng, par.RandomConfig{Photos: 40, Subsets: 20, BudgetFrac: 0.3})
	var solver celf.Solver
	good, err := solver.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	// Adversarially bad feasible solution: photos that appear in no subset
	// first, then whatever fits.
	inSubset := make([]bool, 40)
	for _, q := range inst.Subsets {
		for _, p := range q.Members {
			inSubset[p] = true
		}
	}
	var bad []par.PhotoID
	var cost float64
	for p := 0; p < 40; p++ {
		if !inSubset[p] && cost+inst.Cost[p] <= inst.Budget {
			bad = append(bad, par.PhotoID(p))
			cost += inst.Cost[p]
		}
	}

	hitRatio := func(sol []par.PhotoID) float64 {
		s := New(DefaultConfig(inst.Budget))
		if err := s.IngestInstance(inst); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(sol); err != nil {
			t.Fatal(err)
		}
		for _, p := range AccessPattern(rng, inst, 20_000) {
			s.Get(p)
		}
		return s.Stats().HitRatio()
	}
	if hg, hb := hitRatio(good.Photos), hitRatio(bad); hg <= hb {
		t.Errorf("PHOcus hit ratio %.3f not above bad solution's %.3f", hg, hb)
	}
}

func TestAccessPatternDetailedConsistency(t *testing.T) {
	inst := par.Figure1Instance()
	// Same seed must give the same stream via both APIs.
	det := AccessPatternDetailed(rand.New(rand.NewSource(8)), inst, 500)
	flat := AccessPattern(rand.New(rand.NewSource(8)), inst, 500)
	if len(det) != 500 || len(flat) != 500 {
		t.Fatal("stream lengths wrong")
	}
	for i := range det {
		q := &inst.Subsets[det[i].Subset]
		if q.Members[det[i].Member] != flat[i] {
			t.Fatalf("access %d: detailed (%d,%d) != flat %d", i, det[i].Subset, det[i].Member, flat[i])
		}
	}
	if AccessPatternDetailed(rand.New(rand.NewSource(1)), inst, 0) != nil {
		t.Error("n=0 should return nil")
	}
}
