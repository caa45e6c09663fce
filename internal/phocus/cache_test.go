package phocus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phocus/internal/dataset"
	"phocus/internal/par"
)

// probe looks key up without building on a miss: a GetOrPrepare whose build
// fails, counted as a hit or a miss exactly as a request's probe is.
func probe(c *PreparedCache, key string) (*Prepared, bool) {
	p, hit, _, err := c.GetOrPrepare(key, func() (*Prepared, error) { return nil, errProbeMiss })
	return p, hit && err == nil
}

var errProbeMiss = errors.New("probe miss")

// preparedFixture builds a small Prepared for cache tests.
func preparedFixture(t *testing.T) *Prepared {
	t.Helper()
	inst := par.Figure1Instance()
	p, err := Prepare(context.Background(), &dataset.Dataset{Instance: inst}, PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPreparedCacheEntryBound(t *testing.T) {
	p := preparedFixture(t)
	c := NewPreparedCache(2, 0)
	c.Put("a", p)
	c.Put("b", p)
	if evicted := c.Put("c", p); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// "a" is the oldest and must be the victim.
	if _, ok := probe(c, "a"); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, key := range []string{"b", "c"} {
		if _, ok := probe(c, key); !ok {
			t.Errorf("entry %q missing", key)
		}
	}
}

func TestPreparedCacheLRUOrder(t *testing.T) {
	p := preparedFixture(t)
	c := NewPreparedCache(2, 0)
	c.Put("a", p)
	c.Put("b", p)
	if _, ok := probe(c, "a"); !ok { // refresh "a": now "b" is the LRU victim
		t.Fatal("warm entry missing")
	}
	c.Put("c", p)
	if _, ok := probe(c, "b"); ok {
		t.Error("refreshed entry evicted instead of the stale one")
	}
	if _, ok := probe(c, "a"); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestPreparedCacheByteBound(t *testing.T) {
	p := preparedFixture(t)
	size := p.SizeBytes()
	if size <= 0 {
		t.Fatalf("SizeBytes = %d, want positive", size)
	}
	// Room for exactly two entries.
	c := NewPreparedCache(0, 2*size)
	c.Put("a", p)
	c.Put("b", p)
	if c.UsedBytes() != 2*size {
		t.Fatalf("UsedBytes = %d, want %d", c.UsedBytes(), 2*size)
	}
	if evicted := c.Put("c", p); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if c.UsedBytes() > 2*size {
		t.Fatalf("UsedBytes = %d exceeds bound %d", c.UsedBytes(), 2*size)
	}
	// A value that alone exceeds the byte bound is never admitted.
	tiny := NewPreparedCache(0, size-1)
	if evicted := tiny.Put("huge", p); evicted != 0 {
		t.Fatalf("oversize Put evicted %d", evicted)
	}
	if tiny.Len() != 0 {
		t.Error("oversize value admitted")
	}
}

func TestPreparedCacheStats(t *testing.T) {
	p := preparedFixture(t)
	c := NewPreparedCache(1, 0)
	if _, ok := probe(c, "a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", p)
	probe(c, "a")
	c.Put("b", p) // evicts "a"
	probe(c, "a")
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 eviction", st)
	}
}

func TestPreparedCacheUnbounded(t *testing.T) {
	p := preparedFixture(t)
	c := NewPreparedCache(0, 0)
	for i := 0; i < 100; i++ {
		if evicted := c.Put(fmt.Sprint(i), p); evicted != 0 {
			t.Fatalf("unbounded cache evicted at %d", i)
		}
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
}

// TestPreparedCacheDeltaAccounting: the cache charges each entry its
// insert-time SizeBytes, so removal returns UsedBytes to exactly zero even
// when an ApplyDelta changes the live value's SizeBytes in between.
func TestPreparedCacheDeltaAccounting(t *testing.T) {
	ctx := context.Background()
	ds := snapDataset(t, 59, snapSimVariants["dense"])
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, InstanceDigest: "cache-delta"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Save(p); err != nil {
		t.Fatal(err)
	}
	fp, _ := p.Fingerprint()
	loaded, err := store.Load(fp)
	if err != nil {
		t.Fatal(err)
	}

	c := NewPreparedCache(8, 1<<40)
	c.Put(fp, loaded)
	before := loaded.SizeBytes()
	if got := c.UsedBytes(); got != before {
		t.Fatalf("UsedBytes = %d, want SizeBytes %d", got, before)
	}
	rng := rand.New(rand.NewSource(61))
	if _, err := loaded.ApplyDelta(ctx, randomChurn(rng, loaded.base, nil, 1, 3, true)); err != nil {
		t.Fatal(err)
	}
	if loaded.SizeBytes() == before {
		t.Fatal("the delta left SizeBytes unchanged; the memoized charge went untested")
	}
	c.Remove(fp)
	if got := c.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes = %d after removing the only entry, want 0", got)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty")
	}
}

// TestGetOrPrepareSingleflight: concurrent GetOrPrepare calls for one key
// run prepare exactly once — the burst pattern the async job queue
// produces when many jobs target the same archive.
func TestGetOrPrepareSingleflight(t *testing.T) {
	p := preparedFixture(t)
	c := NewPreparedCache(4, 0)
	var prepares atomic.Int64
	gate := make(chan struct{})
	const callers = 8
	results := make(chan bool, callers) // hit flags
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, hit, _, err := c.GetOrPrepare("k", func() (*Prepared, error) {
				prepares.Add(1)
				<-gate // hold the flight open so every caller joins it
				return p, nil
			})
			if err != nil || got != p {
				t.Errorf("GetOrPrepare: %v %v", got, err)
			}
			results <- hit
		}()
	}
	// Wait for the flight owner to start, then let everyone through.
	deadline := time.Now().Add(5 * time.Second)
	for prepares.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	if n := prepares.Load(); n != 1 {
		t.Fatalf("prepare ran %d times for one key, want 1", n)
	}
	misses := 0
	for hit := range results {
		if !hit {
			misses++
		}
	}
	// Exactly the flight owner is a miss; joiners avoided a prepare.
	if misses != 1 {
		t.Errorf("%d misses across the burst, want 1", misses)
	}
	// The value landed in the cache for later callers.
	if got, ok := probe(c, "k"); !ok || got != p {
		t.Error("singleflight result not cached")
	}
}

// TestGetOrPrepareErrorNotCached: a failed prepare propagates to every
// waiter of the flight and leaves the cache empty, so the next caller
// retries instead of being served a poisoned entry.
func TestGetOrPrepareErrorNotCached(t *testing.T) {
	c := NewPreparedCache(4, 0)
	boom := fmt.Errorf("prepare exploded")
	calls := 0
	_, _, _, err := c.GetOrPrepare("k", func() (*Prepared, error) {
		calls++
		return nil, boom
	})
	if err != boom {
		t.Fatalf("err %v, want the prepare error", err)
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	// The next call retries and can succeed.
	p := preparedFixture(t)
	got, hit, _, err := c.GetOrPrepare("k", func() (*Prepared, error) {
		calls++
		return p, nil
	})
	if err != nil || got != p || hit {
		t.Fatalf("retry after error: %v %v hit=%v", got, err, hit)
	}
	if calls != 2 {
		t.Fatalf("prepare calls %d, want 2", calls)
	}
}
