package phocus

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/par"
)

func preparedForSnapDelta(t *testing.T, tau float64) (*Prepared, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	inst := par.Random(rng, par.RandomConfig{
		Photos: 32, Subsets: 9, BudgetFrac: 0.4, RetainFrac: 0.1, SimDensity: 0.6,
	})
	p, err := Prepare(context.Background(), &dataset.Dataset{Instance: inst},
		PrepareOptions{Tau: tau, InstanceDigest: "snap-delta"})
	if err != nil {
		t.Fatal(err)
	}
	return p, rng
}

// TestSnapshotRoundTripAfterDelta encodes a Prepared whose kernels carry an
// active delta overlay (Slabs alone would refuse them) and requires the
// decoded twin to agree on fingerprint, husk bitmap, both kernels (the
// τ-kernel it derives from the true one equals the one the deltas
// maintained) and solve results — including after further churn on both
// sides, and after a compaction.
func TestSnapshotRoundTripAfterDelta(t *testing.T) {
	ctx := context.Background()
	p, rng := preparedForSnapDelta(t, 0.3)
	d := randomChurn(rng, p.base, nil, 2, 2, true)
	stats, err := p.ApplyDelta(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted {
		t.Skip("delta compacted immediately; overlay encode path not exercised")
	}
	buf, err := EncodeSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	pfp, _ := p.Fingerprint()
	if qfp, _ := q.Fingerprint(); qfp != pfp || qfp != stats.NewFingerprint {
		t.Fatalf("decoded fingerprint %s, want evolved %s", qfp, stats.NewFingerprint)
	}
	if got, want := removedCount(q.removed), removedCount(p.removed); got != want {
		t.Fatalf("decoded %d husks, want %d", got, want)
	}
	sameRoundTrip := func(label string, p, q *Prepared) {
		t.Helper()
		sameSlabs(t, label+" base kernel", canonicalKernel(p.base), q.base.Kernel())
		sameSlabs(t, label+" solve kernel", canonicalKernel(p.solveTmpl), solveKernel(q))
		requireSameRun(t, label, p, q, 0.4*p.TotalCost(), AlgoCELF)
	}
	sameRoundTrip("round-trip", p, q)

	// A husk must stay dead on the decoded side: removing it again errors.
	if _, err := q.ApplyDelta(ctx, &Delta{Remove: d.Remove[:1]}); err == nil {
		t.Fatal("decoded Prepared re-removed a husk")
	}
	// And identical further churn keeps the two in lockstep.
	d2 := randomChurn(rng, p.base, p.removed, 1, 1, false)
	if _, err := p.ApplyDelta(ctx, d2); err != nil {
		t.Fatal(err)
	}
	if _, err := q.ApplyDelta(ctx, d2); err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "post-round-trip churn", p, q, 0.4*p.TotalCost(), AlgoCELF)

	if err := compactNow(p); err != nil {
		t.Fatal(err)
	}
	if buf, err = EncodeSnapshot(p); err != nil {
		t.Fatal(err)
	}
	if q, err = DecodeSnapshot(buf); err != nil {
		t.Fatal(err)
	}
	sameRoundTrip("compacted round-trip", p, q)
}

// TestSnapshotStalenessAfterDelta is the satellite gate: once ApplyDelta
// evolves the fingerprint, the pre-churn snapshot must never answer for the
// new fingerprint, and re-saving installs the post-churn bytes under the new
// name (the old file stays until explicitly invalidated with Remove).
func TestSnapshotStalenessAfterDelta(t *testing.T) {
	ctx := context.Background()
	p, rng := preparedForSnapDelta(t, 0)
	store, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Save(p); err != nil {
		t.Fatal(err)
	}
	oldFP, _ := p.Fingerprint()

	d := randomChurn(rng, p.base, nil, 2, 1, false)
	stats, err := p.ApplyDelta(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	newFP := stats.NewFingerprint

	// No snapshot exists yet for the evolved fingerprint.
	if _, err := store.Load(newFP); !os.IsNotExist(err) {
		t.Fatalf("Load(new fp) = %v, want IsNotExist", err)
	}
	// Renaming the stale file under the new fingerprint (what a confused
	// operator or a bad sync could do) must be caught by the embedded
	// fingerprint, not served.
	if err := os.Rename(store.Path(oldFP), store.Path(newFP)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(newFP); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Load of renamed stale snapshot = %v, want ErrBadSnapshot", err)
	}
	if err := os.Rename(store.Path(newFP), store.Path(oldFP)); err != nil {
		t.Fatal(err)
	}

	// Re-save after the delta: the file lands under the new fingerprint.
	path, _, err := store.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	if path != store.Path(newFP) {
		t.Fatalf("post-delta Save wrote %s, want %s", path, store.Path(newFP))
	}
	q, err := store.Load(newFP)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "reloaded", p, q, 0.4*p.TotalCost(), AlgoCELF)

	// Invalidating the stale name removes it; a second Remove is a no-op.
	if err := store.Remove(oldFP); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(oldFP); !os.IsNotExist(err) {
		t.Fatalf("Load(old fp) after Remove = %v, want IsNotExist", err)
	}
	if err := store.Remove(oldFP); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCrashBetweenDeltaAndResave models the crash window after a
// delta commits in memory but before the async re-save lands: a restarting
// server warm-fills only the pre-churn snapshot under the pre-churn
// fingerprint — correct but stale — and the post-churn fingerprint misses,
// falling back to cold Prepare.
func TestSnapshotCrashBetweenDeltaAndResave(t *testing.T) {
	ctx := context.Background()
	p, rng := preparedForSnapDelta(t, 0.3)
	store, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Save(p); err != nil {
		t.Fatal(err)
	}
	oldFP, _ := p.Fingerprint()

	d := randomChurn(rng, p.base, nil, 1, 1, false)
	stats, err := p.ApplyDelta(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash": p is gone, no re-save happened. Restart warm-fills a fresh
	// cache from the directory.
	cache := NewPreparedCache(8, 0)
	ws, err := store.WarmFill(cache, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Loaded != 1 || ws.Corrupt != 0 {
		t.Fatalf("WarmFill loaded %d / corrupt %d, want 1 / 0", ws.Loaded, ws.Corrupt)
	}
	if _, ok := probe(cache, stats.NewFingerprint); ok {
		t.Fatal("post-churn fingerprint served from a warm fill that never saw the delta")
	}
	q, ok := probe(cache, oldFP)
	if !ok {
		t.Fatal("pre-churn snapshot not recovered")
	}
	if fp, _ := q.Fingerprint(); fp != oldFP {
		t.Fatalf("recovered snapshot fingerprint %s, want %s", fp, oldFP)
	}
	if removedCount(q.removed) != 0 {
		t.Fatal("pre-churn snapshot carries husks")
	}
}

// TestPreparedCacheRemove pins the cache invalidation hook: Remove drops the
// entry and its byte accounting, and reports presence.
func TestPreparedCacheRemove(t *testing.T) {
	p, _ := preparedForSnapDelta(t, 0)
	cache := NewPreparedCache(4, 0)
	cache.Put("a", p)
	if cache.UsedBytes() != p.SizeBytes() {
		t.Fatalf("UsedBytes %d, want %d", cache.UsedBytes(), p.SizeBytes())
	}
	if !cache.Remove("a") {
		t.Fatal("Remove(a) = false, want true")
	}
	if _, ok := probe(cache, "a"); ok {
		t.Fatal("entry survived Remove")
	}
	if cache.UsedBytes() != 0 {
		t.Fatalf("UsedBytes %d after Remove, want 0", cache.UsedBytes())
	}
	if cache.Remove("a") {
		t.Fatal("second Remove(a) = true, want false")
	}
}

// TestSnapshotKernelLayoutMatchesCompile: a snapshot stores only the true
// kernel's entry slabs, and decode builds the rest of it — row lengths,
// slot weights, occurrence index — from the decoded subsets. The decoded
// kernel must be the one CompileKernel builds over the decoded instance,
// slab for slab, whether the Prepared came from a cold Prepare, a chain of
// deltas whose kernels still carry their overlays, or a compaction. The
// decoded SizeBytes charges the layout decode built beside the loaded
// region.
func TestSnapshotKernelLayoutMatchesCompile(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	inst := par.Random(rng, par.RandomConfig{
		Photos: 300, Subsets: 30, MaxSubset: 40, BudgetFrac: 0.4, RetainFrac: 0.05, SimDensity: 0.5,
	})
	p, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, PrepareOptions{Tau: 0.3, InstanceDigest: "layout"})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		buf, err := EncodeSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := DecodeSnapshot(buf)
		if err != nil {
			t.Fatal(err)
		}
		kb := q.base.Kernel()
		sameSlabs(t, label, par.CompileKernel(q.base), kb)
		s := kb.Slabs()
		layout := 4*int64(len(s.RowLen)) + 8*int64(len(s.SlotWR)) + 4*int64(len(s.OccStart)) + 4*int64(len(s.OccRow))
		want := int64(len(buf)) + layout + pendingCoverBytes(kb) + solveKernel(q).SizeBytes()
		if got := q.SizeBytes(); got != want {
			t.Fatalf("%s: decoded SizeBytes %d, want the file's %d + layout %d + pending cover + τ-kernel = %d",
				label, got, len(buf), layout, want)
		}
		requireSameRun(t, label, p, q, 0.4*p.TotalCost(), AlgoCELF)
	}
	check("cold")
	for i := 0; i < 3; i++ {
		stats, err := p.ApplyDelta(ctx, randomChurn(rng, p.base, p.removed, 1, 1, i == 0))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Compacted {
			t.Fatalf("delta %d compacted; the chain must leave its overlays in place", i)
		}
	}
	if p.base.Kernel().Canonical() {
		t.Fatal("the delta chain left no overlay on the true kernel")
	}
	check("delta chain")
	if err := compactNow(p); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

// TestSnapshotRejectsRetainedOutOfRange: a delta'd Prepared's file carries
// a husk list, which decode checks the retained set against. A retained
// photo outside the photos, in a file resealed with fresh checksums, must
// fail with ErrBadSnapshot before that check indexes the husk bitmap with
// it.
func TestSnapshotRejectsRetainedOutOfRange(t *testing.T) {
	p, rng := preparedForSnapDelta(t, 0.3)
	if _, err := p.ApplyDelta(context.Background(), randomChurn(rng, p.base, nil, 2, 2, false)); err != nil {
		t.Fatal(err)
	}
	buf, err := EncodeSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	rawFP, secs := snapSections(buf)
	sectionAt(t, secs, secRemoved) // the file must carry its husks
	ret := sectionAt(t, secs, secRetained)
	if len(ret.data) == 0 {
		t.Fatal("no retained photo to corrupt")
	}
	binary.LittleEndian.PutUint32(ret.data, uint32(p.NumPhotos()+7))
	if _, err := DecodeSnapshot(assembleSnapshot(rawFP, secs)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("error %v, want ErrBadSnapshot", err)
	}
}
