package phocus

import (
	"context"
	"runtime"
	"testing"

	"phocus/internal/dataset"
)

// TestPreparedSizeBytesAccounting pins the cache's byte accounting to
// reality: the bytes SizeBytes attributes to what Prepare allocated (the
// compiled kernels, which hold every similarity — the cost vector, members
// and relevances existed before the call) must track the measured heap
// growth. An accounting that billed the sparse view's shared
// Members/Relevance slices a second time, or that still billed similarity
// structures the Prepared no longer retains, fails it.
func TestPreparedSizeBytesAccounting(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap-measurement test")
	}
	ds, err := dataset.GeneratePublic(dataset.PublicSpec{Name: "size-acct", NumPhotos: 1200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(ds)

	accounted := p.SizeBytes() - 8*int64(len(p.base.Cost))
	for _, q := range p.base.Subsets {
		accounted -= 4*int64(len(q.Members)) + 8*int64(len(q.Relevance))
	}
	if accounted <= 0 {
		t.Fatalf("accounted new bytes %d: want positive (kernels)", accounted)
	}
	// Generous 2× band in both directions: allocator size classes and slice
	// headers pad the measurement up, transient scratch freed by GC cannot
	// pad it down, and the old double-counting overshot by far more than 2×.
	if accounted > 2*measured {
		t.Fatalf("SizeBytes over-counts: accounts %d new bytes, heap grew %d", accounted, measured)
	}
	if measured > 2*accounted {
		t.Fatalf("SizeBytes under-counts: accounts %d new bytes, heap grew %d", accounted, measured)
	}
	t.Logf("accounted %d bytes for Prepare's allocations, heap grew %d (total SizeBytes %d)",
		accounted, measured, p.SizeBytes())
}
