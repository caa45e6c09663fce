package phocus

import (
	"context"
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
