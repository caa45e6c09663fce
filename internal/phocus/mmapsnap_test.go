package phocus

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"

	"phocus/internal/par"
)

// TestMmapSnapshotRoundTrip pins the mmap load path: a store flipped to
// Mapped serves the same Prepared (identical runs) as the heap path, and on
// supported platforms the value reports its mapped residency. On platforms
// without mmap the fallback must be silent and identical.
func TestMmapSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	ds := snapDataset(t, 41, snapSimVariants["dense"])
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, InstanceDigest: "mmap-rt"})
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

	heap, err := store.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if heap.MappedBytes() != 0 {
		t.Fatalf("heap load reports %d mapped bytes", heap.MappedBytes())
	}
	store.Mapped = true
	mapped, err := store.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported {
		if mapped.MappedBytes() <= 0 {
			t.Fatal("mapped load reports no mapped bytes")
		}
	} else if mapped.MappedBytes() != 0 {
		t.Fatal("fallback load reports mapped bytes")
	}
	budget := 0.4 * ds.Instance.TotalCost()
	requireSameRun(t, "mmap vs heap", mapped, heap, budget, AlgoCELF)
	requireSameRun(t, "mmap vs compiled", mapped, p, budget, AlgoCELF)

	// Deltas work against the CoW mapping and EncodeSnapshot against the
	// mapped slabs: apply churn to the mapped value and require it to keep
	// matching the heap twin given the same churn.
	rng := rand.New(rand.NewSource(43))
	d := randomChurn(rng, mapped.base, nil, 2, 2, true)
	if _, err := mapped.ApplyDelta(ctx, d); err != nil {
		t.Fatalf("ApplyDelta on mapped: %v", err)
	}
	if _, err := heap.ApplyDelta(ctx, d); err != nil {
		t.Fatalf("ApplyDelta on heap: %v", err)
	}
	requireSameRun(t, "post-delta mmap vs heap", mapped, heap, budget, AlgoCELF)
}

// evictDuringSolve releases the Prepared's mapping from inside the CELF
// event stream — the mid-solve eviction race the pin count exists for.
type evictDuringSolve struct {
	release func()
	fired   bool
}

func (o *evictDuringSolve) Recomputed(par.PhotoID, float64) {}
func (o *evictDuringSolve) Selected(par.PhotoID, float64) {
	if !o.fired {
		o.fired = true
		o.release()
	}
}

// TestMmapEvictWhileSolving pins the mapping lifetime rules: releasing the
// mapping mid-solve (cache eviction) must not unmap under the running solve
// — the pin holds the slabs until the run drains — and only NEW operations
// fail, with ErrSnapshotUnmapped.
func TestMmapEvictWhileSolving(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	ctx := context.Background()
	ds := snapDataset(t, 47, snapSimVariants["dense"])
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, InstanceDigest: "mmap-evict"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Mapped = true
	if _, _, err := store.Save(p); err != nil {
		t.Fatal(err)
	}
	fp, _ := p.Fingerprint()
	mapped, err := store.Load(fp)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewPreparedCache(4, 0)
	cache.Put(fp, mapped)
	obs := &evictDuringSolve{release: func() { cache.Remove(fp) }}
	budget := 0.4 * ds.Instance.TotalCost()
	res, err := mapped.Run(ctx, RunOptions{Budget: budget, Workers: 1, Observer: obs})
	if err != nil {
		t.Fatalf("Run with mid-solve eviction: %v", err)
	}
	if !obs.fired {
		t.Fatal("observer never fired; the eviction raced nothing")
	}
	want, err := p.Run(ctx, RunOptions{Budget: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(res) != keyOf(want) {
		t.Fatalf("evicted-mid-solve run diverged: %+v vs %+v", keyOf(res), keyOf(want))
	}

	// The mapping is gone now (pins drained after the run): new slab-touching
	// operations must fail closed, not fault.
	if _, err := mapped.Run(ctx, RunOptions{Budget: budget, Workers: 1}); !errors.Is(err, ErrSnapshotUnmapped) {
		t.Fatalf("Run after release: %v, want ErrSnapshotUnmapped", err)
	}
	if _, err := EncodeSnapshot(mapped); !errors.Is(err, ErrSnapshotUnmapped) {
		t.Fatalf("EncodeSnapshot after release: %v, want ErrSnapshotUnmapped", err)
	}
	if _, err := mapped.View(budget); !errors.Is(err, ErrSnapshotUnmapped) {
		t.Fatalf("View after release: %v, want ErrSnapshotUnmapped", err)
	}
	// Metadata stays heap-side and keeps answering.
	if mapped.NumPhotos() != p.NumPhotos() {
		t.Fatal("NumPhotos changed after release")
	}
	if got, _ := mapped.Fingerprint(); got != fp {
		t.Fatal("Fingerprint changed after release")
	}
}

// TestMmapTruncatedSnapshot pins the SIGBUS-avoidance contract: the decode
// bounds every section read to the fstat'd length, so a snapshot truncated
// before mapping fails with ErrBadSnapshot instead of faulting.
func TestMmapTruncatedSnapshot(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	ctx := context.Background()
	ds := snapDataset(t, 53, snapSimVariants["dense"])
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, InstanceDigest: "mmap-trunc"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Mapped = true
	path, size, err := store.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := p.Fingerprint()
	for _, keep := range []int64{0, 7, size / 2, size - 1} {
		if err := os.Truncate(path, keep); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(fp); err == nil || !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("keep=%d: Load = %v, want ErrBadSnapshot", keep, err)
		}
		full, err := EncodeSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheMmapAccounting pins the satellite fix: mapped bytes are charged
// against their own gauge, not the heap byte bound, and the memoized charge
// returns usedBytes to exactly zero even when a delta changes the live
// value's SizeBytes between insert and removal.
func TestCacheMmapAccounting(t *testing.T) {
	ctx := context.Background()
	ds := snapDataset(t, 59, snapSimVariants["dense"])
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, InstanceDigest: "cache-mmap"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Mapped = true
	if _, _, err := store.Save(p); err != nil {
		t.Fatal(err)
	}
	fp, _ := p.Fingerprint()
	mapped, err := store.Load(fp)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewPreparedCache(8, 1<<40)
	cache.Put(fp, mapped)
	if got, want := cache.MappedBytes(), mapped.MappedBytes(); got != want {
		t.Fatalf("cache MappedBytes = %d, want %d", got, want)
	}
	if mmapSupported {
		if charged := cache.UsedBytes(); charged >= mapped.SizeBytes() {
			t.Fatalf("charged %d bytes >= SizeBytes %d; mapped slabs double-charged", charged, mapped.SizeBytes())
		}
	}

	// A delta grows the live value's SizeBytes; removal must still subtract
	// exactly the memoized insert-time charge.
	rng := rand.New(rand.NewSource(61))
	if _, err := mapped.ApplyDelta(ctx, randomChurn(rng, mapped.base, nil, 1, 3, true)); err != nil {
		t.Fatal(err)
	}
	cache.Remove(fp)
	if got := cache.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes = %d after removing the only entry, want 0", got)
	}
	if got := cache.MappedBytes(); got != 0 {
		t.Fatalf("MappedBytes = %d after removing the only entry, want 0", got)
	}
	if cache.Len() != 0 {
		t.Fatal("cache not empty")
	}
}

// TestCacheRekeyKeepsMapping pins the delta rekey window: inserting the
// value under its post-churn key BEFORE removing the pre-churn key must keep
// the reference count positive throughout, so the mapping survives the
// rekey. (Remove-then-Put would drop the last reference in between.)
func TestCacheRekeyKeepsMapping(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	ctx := context.Background()
	ds := snapDataset(t, 67, snapSimVariants["dense"])
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, InstanceDigest: "cache-rekey"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Mapped = true
	if _, _, err := store.Save(p); err != nil {
		t.Fatal(err)
	}
	oldFP, _ := p.Fingerprint()
	mapped, err := store.Load(oldFP)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPreparedCache(8, 0)
	cache.Put(oldFP, mapped)

	rng := rand.New(rand.NewSource(71))
	stats, err := mapped.ApplyDelta(ctx, randomChurn(rng, mapped.base, nil, 1, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(stats.NewFingerprint, mapped)
	cache.Remove(stats.OldFingerprint)
	if _, err := mapped.Run(ctx, RunOptions{Budget: 0.4 * mapped.TotalCost(), Workers: 1}); err != nil {
		t.Fatalf("Run after rekey: %v (mapping dropped during rekey?)", err)
	}
	cache.Remove(stats.NewFingerprint)
	if _, err := mapped.Run(ctx, RunOptions{Budget: 0.4 * mapped.TotalCost(), Workers: 1}); !errors.Is(err, ErrSnapshotUnmapped) {
		t.Fatalf("Run after final remove: %v, want ErrSnapshotUnmapped", err)
	}
}
