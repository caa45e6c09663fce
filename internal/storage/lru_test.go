package storage

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"phocus/internal/celf"
	"phocus/internal/par"
)

func lruConfig(capacity float64) Config {
	return Config{CacheCapacity: capacity, CacheLatency: time.Millisecond, ArchiveLatency: 20 * time.Millisecond}
}

func TestLRUBasics(t *testing.T) {
	c := NewLRU(lruConfig(3))
	for p, size := range []float64{1, 1, 2} {
		if err := c.Ingest(par.PhotoID(p), size); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Ingest(0, 1); err == nil {
		t.Error("double ingest accepted")
	}
	if err := c.Ingest(9, -1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := c.Get(42); err == nil {
		t.Error("unknown photo served")
	}

	// Cold miss inserts.
	if hit, _ := c.Get(0); hit {
		t.Error("cold access reported as hit")
	}
	if hit, _ := c.Get(0); !hit {
		t.Error("warm access reported as miss")
	}
	if c.Usage() != 1 {
		t.Errorf("usage %g, want 1", c.Usage())
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewLRU(lruConfig(3))
	c.Ingest(0, 2)
	c.Ingest(1, 1)
	c.Ingest(2, 2)
	c.Get(0) // cache: {0}
	c.Get(1) // cache: {0,1} (size 3)
	c.Get(1) // refresh 1 → LRU order: 1 fresh, 0 stale
	c.Get(2) // needs 2 → evicts 0 (LRU) then fits? 3-2+... evicts 0 (2) → used 1+2=3
	if c.Cached(0) {
		t.Error("LRU victim 0 still cached")
	}
	if !c.Cached(1) || !c.Cached(2) {
		t.Error("recently used photos evicted")
	}
	if c.Usage() != 3 {
		t.Errorf("usage %g, want 3", c.Usage())
	}
}

func TestLRUOversizedPhoto(t *testing.T) {
	c := NewLRU(lruConfig(1))
	c.Ingest(0, 5)
	if hit, err := c.Get(0); err != nil || hit {
		t.Fatalf("oversized photo: hit=%v err=%v", hit, err)
	}
	if c.Cached(0) || c.Usage() != 0 {
		t.Error("oversized photo inserted into cache")
	}
}

func TestLRUStatsAndReset(t *testing.T) {
	c := NewLRU(lruConfig(2))
	c.Ingest(0, 1)
	c.Get(0)
	c.Get(0)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.SimulatedLatency != 21*time.Millisecond {
		t.Errorf("latency %v", st.SimulatedLatency)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
	if !c.Cached(0) {
		t.Error("ResetStats evicted contents")
	}
}

// The PAR-pinned cache must beat reactive LRU on PAR's own access pattern:
// LRU pays a miss for every first access and cannot prefer high-value
// small photos; the pinned selection holds exactly the objective-optimal
// set. This is the quantitative version of the paper's Section 2 argument
// that frequency/recency caching does not solve the archival problem.
func TestPinnedBeatsLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := par.Random(rng, par.RandomConfig{Photos: 60, Subsets: 30, BudgetFrac: 0.25})
	var solver celf.Solver
	sol, err := solver.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}

	pinned := New(DefaultConfig(inst.Budget))
	if err := pinned.IngestInstance(inst); err != nil {
		t.Fatal(err)
	}
	if err := pinned.Apply(sol.Photos); err != nil {
		t.Fatal(err)
	}
	lru := NewLRU(DefaultConfig(inst.Budget))
	if err := lru.IngestInstance(inst); err != nil {
		t.Fatal(err)
	}

	accesses := AccessPattern(rng, inst, 30_000)
	// Warm the LRU on the first half, then measure both on the second so
	// the comparison is steady-state vs steady-state.
	for _, p := range accesses[:15_000] {
		lru.Get(p)
	}
	lru.ResetStats()
	for _, p := range accesses[15_000:] {
		pinned.Get(p)
		lru.Get(p)
	}
	hp, hl := pinned.Stats().HitRatio(), lru.Stats().HitRatio()
	if hp <= hl {
		t.Errorf("pinned hit ratio %.3f not above steady-state LRU %.3f", hp, hl)
	}
}
