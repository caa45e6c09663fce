package phocus

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
)

// randomChurn builds a valid churn batch against the current state of inst:
// nRemove removals (never retained photos, never the last live relevance
// mass of a subset), nAdd added photos with memberships and explicit
// similarity rows, and optionally one new subset mixing existing and added
// photos. The generated delta passes resolveDelta by construction.
func randomChurn(rng *rand.Rand, inst *par.Instance, removed []bool, nRemove, nAdd int, newSub bool) *Delta {
	d := &Delta{}
	n := inst.NumPhotos()
	dead := func(p par.PhotoID) bool { return isRemoved(removed, p) }
	pending := map[par.PhotoID]bool{}

	// Live relevance-mass counts per subset guard the zero-mass validation.
	liveMass := make([]int, len(inst.Subsets))
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		for mi, p := range q.Members {
			if !dead(p) && q.Relevance[mi] > 0 {
				liveMass[qi]++
			}
		}
	}
	for tries := 0; len(d.Remove) < nRemove && tries < 50*nRemove; tries++ {
		p := par.PhotoID(rng.Intn(n))
		if dead(p) || pending[p] || inst.IsRetained(p) {
			continue
		}
		ok := true
		for _, oc := range inst.Occurrences(p) {
			if inst.Subsets[oc.Subset].Relevance[oc.Index] > 0 && liveMass[oc.Subset] < 2 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, oc := range inst.Occurrences(p) {
			if inst.Subsets[oc.Subset].Relevance[oc.Index] > 0 {
				liveMass[oc.Subset]--
			}
		}
		pending[p] = true
		d.Remove = append(d.Remove, p)
	}

	// addedTo tracks batch additions per subset so later adds can neighbor
	// earlier ones (exercising the earlier-batch-member resolution path).
	addedTo := map[int][]par.PhotoID{}
	for i := 0; i < nAdd; i++ {
		photo := par.PhotoID(n + i)
		ap := DeltaPhoto{Cost: 0.5 + 2*rng.Float64()}
		nq := 1 + rng.Intn(3)
		if nq > len(inst.Subsets) {
			nq = len(inst.Subsets)
		}
		qs := rng.Perm(len(inst.Subsets))[:nq]
		sort.Ints(qs)
		for _, qi := range qs {
			m := DeltaMembership{Subset: qi, Relevance: 0.1 + rng.Float64()}
			q := &inst.Subsets[qi]
			for _, p := range q.Members {
				if dead(p) || pending[p] {
					continue
				}
				if rng.Float64() < 0.5 {
					m.Neighbors = append(m.Neighbors, DeltaNeighbor{Photo: p, Sim: 0.05 + 0.9*rng.Float64()})
				}
			}
			for _, p := range addedTo[qi] {
				if rng.Float64() < 0.5 {
					m.Neighbors = append(m.Neighbors, DeltaNeighbor{Photo: p, Sim: 0.05 + 0.9*rng.Float64()})
				}
			}
			addedTo[qi] = append(addedTo[qi], photo)
			ap.Memberships = append(ap.Memberships, m)
		}
		d.Add = append(d.Add, ap)
	}

	if newSub {
		var pool []par.PhotoID
		for p := 0; p < n; p++ {
			if id := par.PhotoID(p); !dead(id) && !pending[id] {
				pool = append(pool, id)
			}
		}
		var members []par.PhotoID
		for _, i := range rng.Perm(len(pool)) {
			members = append(members, pool[i])
			if len(members) == 3 {
				break
			}
		}
		for i := 0; i < nAdd && i < 2; i++ {
			members = append(members, par.PhotoID(n+i))
		}
		if len(members) > 0 {
			ns := DeltaSubset{Name: "churn", Weight: 0.5 + rng.Float64()}
			for pos, p := range members {
				m := DeltaSubsetMember{Photo: p, Relevance: 0.2 + rng.Float64()}
				for _, earlier := range members[:pos] {
					if rng.Float64() < 0.7 {
						m.Neighbors = append(m.Neighbors, DeltaNeighbor{Photo: earlier, Sim: 0.05 + 0.9*rng.Float64()})
					}
				}
				ns.Members = append(ns.Members, m)
			}
			d.NewSubsets = []DeltaSubset{ns}
		}
	}
	return d
}

// requireSameRun runs both Prepared values under identical options and
// requires bit-identical selections and scores.
func requireSameRun(t *testing.T, label string, live, cold *Prepared, budget float64, algo Algorithm) {
	t.Helper()
	ctx := context.Background()
	opts := RunOptions{Budget: budget, Algorithm: algo}
	rl, err := live.Run(ctx, opts)
	if err != nil {
		t.Fatalf("%s: live Run(%s): %v", label, algo, err)
	}
	rc, err := cold.Run(ctx, opts)
	if err != nil {
		t.Fatalf("%s: cold Run(%s): %v", label, algo, err)
	}
	if rl.Solution.Score != rc.Solution.Score {
		t.Fatalf("%s: %s score live %v != cold %v", label, algo, rl.Solution.Score, rc.Solution.Score)
	}
	if len(rl.Solution.Photos) != len(rc.Solution.Photos) {
		t.Fatalf("%s: %s selected %d photos live vs %d cold", label, algo, len(rl.Solution.Photos), len(rc.Solution.Photos))
	}
	for i := range rl.Solution.Photos {
		if rl.Solution.Photos[i] != rc.Solution.Photos[i] {
			t.Fatalf("%s: %s selection diverged at %d: live %v cold %v",
				label, algo, i, rl.Solution.Photos, rc.Solution.Photos)
		}
	}
	if rl.OnlineBound != rc.OnlineBound {
		t.Fatalf("%s: %s online bound live %v != cold %v", label, algo, rl.OnlineBound, rc.OnlineBound)
	}
}

// TestApplyDeltaMatchesColdPrepare is the differential gate of the delta
// path: after every batch of churn, the incrementally maintained Prepared
// must produce bit-identical Run selections to a cold Prepare over the
// merged (post-churn) instance — with and without τ-sparsification, under
// the production solver and the streaming fallback. After the chain, a
// compaction of the live kernels must give exactly the slabs a cold
// compile of MergeDelta's instance gives.
func TestApplyDeltaMatchesColdPrepare(t *testing.T) {
	ctx := context.Background()
	for _, tau := range []float64{0, 0.35} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("tau=%v/seed=%d", tau, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				inst := par.Random(rng, par.RandomConfig{
					Photos: 40, Subsets: 12, BudgetFrac: 0.4, RetainFrac: 0.1, SimDensity: 0.6,
				})
				opts := PrepareOptions{Tau: tau, InstanceDigest: fmt.Sprintf("delta-%v-%d", tau, seed)}
				live, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, opts)
				if err != nil {
					t.Fatal(err)
				}
				merged := inst
				var removed []bool
				var cold *Prepared
				for batch := 0; batch < 3; batch++ {
					d := randomChurn(rng, live.base, removed, 2, 2, batch == 1)
					stats, err := live.ApplyDelta(ctx, d)
					if err != nil {
						t.Fatalf("batch %d: ApplyDelta: %v", batch, err)
					}
					if stats.NewFingerprint == stats.OldFingerprint {
						t.Fatalf("batch %d: fingerprint did not evolve", batch)
					}
					if fp, _ := live.Fingerprint(); fp != stats.NewFingerprint {
						t.Fatalf("batch %d: Fingerprint() %s != stats %s", batch, fp, stats.NewFingerprint)
					}
					merged, removed, err = MergeDelta(merged, removed, d)
					if err != nil {
						t.Fatalf("batch %d: MergeDelta: %v", batch, err)
					}
					cold, err = Prepare(ctx, &dataset.Dataset{Instance: merged}, opts)
					if err != nil {
						t.Fatalf("batch %d: cold Prepare: %v", batch, err)
					}
					if live.NumPhotos() != cold.NumPhotos() {
						t.Fatalf("batch %d: live %d photos, cold %d", batch, live.NumPhotos(), cold.NumPhotos())
					}
					if live.TotalCost() != cold.TotalCost() {
						t.Fatalf("batch %d: total cost live %v cold %v", batch, live.TotalCost(), cold.TotalCost())
					}
					label := fmt.Sprintf("batch %d", batch)
					budget := 0.35 * merged.TotalCost()
					requireSameRun(t, label, live, cold, budget, AlgoCELF)
					requireSameRun(t, label, live, cold, budget, AlgoStreaming)
					samePairs(t, label, live, cold)
					if stats.OriginalPairs != cold.OriginalPairs || stats.SparsifiedPairs != cold.SparsifiedPairs {
						t.Fatalf("%s: stats pairs %d/%d, cold %d/%d", label,
							stats.OriginalPairs, stats.SparsifiedPairs, cold.OriginalPairs, cold.SparsifiedPairs)
					}
					samePairs(t, label+" snapshot", roundTrip(t, live), cold)
				}
				if err := compactNow(live); err != nil {
					t.Fatal(err)
				}
				samePairs(t, "compacted", live, cold)
				samePairs(t, "compacted snapshot", roundTrip(t, live), cold)
				sameSlabs(t, "compacted base kernel", par.CompileKernel(merged), live.base.Kernel())
				sameSlabs(t, "compacted solve kernel", solveKernel(cold), solveKernel(live))
				requireSameRun(t, "compacted", live, cold, 0.35*merged.TotalCost(), AlgoCELF)
			})
		}
	}
}

// TestApplyDeltaCompaction drives enough removal churn to trip the automatic
// kernel compaction, then requires the canonical layout back and continued
// differential equality — compaction must be invisible to solve results.
// Every ApplyDelta, the compacting one included, builds the solve template
// once.
func TestApplyDeltaCompaction(t *testing.T) {
	ctx := context.Background()
	builds := 0
	defer func(f func(*par.Instance, *par.Kernel) (*par.Instance, error)) { withKernel = f }(withKernel)
	withKernel = func(in *par.Instance, k *par.Kernel) (*par.Instance, error) {
		builds++
		return in.WithKernel(k)
	}
	rng := rand.New(rand.NewSource(11))
	inst := par.Random(rng, par.RandomConfig{
		Photos: 30, Subsets: 8, BudgetFrac: 0.5, SimDensity: 0.9, MaxSubset: 12,
	})
	opts := PrepareOptions{Tau: 0.2, InstanceDigest: "compaction"}
	live, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, opts)
	if err != nil {
		t.Fatal(err)
	}
	merged := inst
	var removed []bool
	compacted := false
	for batch := 0; batch < 10 && !compacted; batch++ {
		d := randomChurn(rng, live.base, removed, 3, 0, false)
		if len(d.Remove) == 0 {
			break
		}
		builds = 0
		stats, err := live.ApplyDelta(ctx, d)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if builds != 1 {
			t.Fatalf("batch %d (compacted %v): %d solve template builds, want 1", batch, stats.Compacted, builds)
		}
		if merged, removed, err = MergeDelta(merged, removed, d); err != nil {
			t.Fatalf("batch %d: MergeDelta: %v", batch, err)
		}
		compacted = compacted || stats.Compacted
	}
	if !compacted {
		t.Fatal("removal churn never triggered a compaction")
	}
	if !live.base.Kernel().Canonical() {
		t.Fatal("base kernel not canonical after compaction")
	}
	if ks := solveKernel(live); ks != nil && !ks.Canonical() {
		t.Fatal("solve kernel not canonical after compaction")
	}
	if lf := live.LiveFraction(); lf != 1 {
		t.Fatalf("LiveFraction = %v after compaction, want 1", lf)
	}
	cold, err := Prepare(ctx, &dataset.Dataset{Instance: merged}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSlabs(t, "compacted base kernel", par.CompileKernel(merged), live.base.Kernel())
	sameSlabs(t, "compacted solve kernel", solveKernel(cold), solveKernel(live))
	requireSameRun(t, "post-compaction", live, cold, 0.4*merged.TotalCost(), AlgoCELF)
	samePairs(t, "post-compaction", live, cold)

	// Churn after a compaction starts a fresh overlay and must still match.
	d := randomChurn(rng, live.base, removed, 1, 2, true)
	if _, err := live.ApplyDelta(ctx, d); err != nil {
		t.Fatal(err)
	}
	if merged, removed, err = MergeDelta(merged, removed, d); err != nil {
		t.Fatal(err)
	}
	_ = removed
	cold, err = Prepare(ctx, &dataset.Dataset{Instance: merged}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "post-compaction churn", live, cold, 0.4*merged.TotalCost(), AlgoCELF)
	samePairs(t, "post-compaction churn", live, cold)
}

// samePairs fails unless got reports want's τ-sparsification pair counts,
// in its fields and in its Run results.
func samePairs(t *testing.T, label string, got, want *Prepared) {
	t.Helper()
	if got.OriginalPairs != want.OriginalPairs || got.SparsifiedPairs != want.SparsifiedPairs {
		t.Fatalf("%s: pairs %d/%d, want %d/%d", label,
			got.OriginalPairs, got.SparsifiedPairs, want.OriginalPairs, want.SparsifiedPairs)
	}
	res, err := got.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	if res.OriginalPairs != want.OriginalPairs || res.SparsifiedPairs != want.SparsifiedPairs {
		t.Fatalf("%s: Run reports pairs %d/%d, want %d/%d", label,
			res.OriginalPairs, res.SparsifiedPairs, want.OriginalPairs, want.SparsifiedPairs)
	}
}

// roundTrip returns p encoded to a snapshot and decoded.
func roundTrip(t *testing.T, p *Prepared) *Prepared {
	t.Helper()
	buf, err := EncodeSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestApplyDeltaValidation checks that malformed deltas are rejected without
// mutating the Prepared: fingerprint and solve results stay untouched.
func TestApplyDeltaValidation(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	inst := par.Random(rng, par.RandomConfig{
		Photos: 16, Subsets: 5, BudgetFrac: 0.5, RetainFrac: 0.25, SimDensity: 0.7,
	})
	if len(inst.Retained) == 0 {
		t.Fatal("test instance needs a retained photo")
	}
	opts := PrepareOptions{InstanceDigest: "validation"}
	p, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, opts)
	if err != nil {
		t.Fatal(err)
	}
	fp0, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Run(ctx, RunOptions{Budget: 0.4 * inst.TotalCost()})
	if err != nil {
		t.Fatal(err)
	}

	// A non-retained photo and one of its subsets, for the husk-neighbor case.
	var victim par.PhotoID = -1
	var victimSubset int
	for q := range inst.Subsets {
		for _, m := range inst.Subsets[q].Members {
			if !inst.IsRetained(m) {
				victim, victimSubset = m, q
				break
			}
		}
		if victim >= 0 {
			break
		}
	}

	cases := []struct {
		name string
		d    *Delta
	}{
		{"empty", &Delta{}},
		{"unknown-remove", &Delta{Remove: []par.PhotoID{99}}},
		{"duplicate-remove", &Delta{Remove: []par.PhotoID{victim, victim}}},
		{"retained-remove", &Delta{Remove: []par.PhotoID{inst.Retained[0]}}},
		{"zero-cost", &Delta{Add: []DeltaPhoto{{Cost: 0}}}},
		{"unknown-subset", &Delta{Add: []DeltaPhoto{{Cost: 1,
			Memberships: []DeltaMembership{{Subset: 77, Relevance: 1}}}}}},
		{"descending-memberships", &Delta{Add: []DeltaPhoto{{Cost: 1,
			Memberships: []DeltaMembership{{Subset: 1, Relevance: 1}, {Subset: 0, Relevance: 1}}}}}},
		{"zero-relevance", &Delta{Add: []DeltaPhoto{{Cost: 1,
			Memberships: []DeltaMembership{{Subset: 0, Relevance: 0}}}}}},
		{"sim-out-of-range", &Delta{Add: []DeltaPhoto{{Cost: 1,
			Memberships: []DeltaMembership{{Subset: victimSubset, Relevance: 1,
				Neighbors: []DeltaNeighbor{{Photo: victim, Sim: 1.5}}}}}}}},
		{"husk-neighbor", &Delta{
			Remove: []par.PhotoID{victim},
			Add: []DeltaPhoto{{Cost: 1,
				Memberships: []DeltaMembership{{Subset: victimSubset, Relevance: 1,
					Neighbors: []DeltaNeighbor{{Photo: victim, Sim: 0.5}}}}}}}},
		{"non-member-neighbor", &Delta{Add: []DeltaPhoto{{Cost: 1,
			Memberships: []DeltaMembership{{Subset: victimSubset, Relevance: 1,
				Neighbors: []DeltaNeighbor{{Photo: 999, Sim: 0.5}}}}}}}},
		{"empty-new-subset", &Delta{NewSubsets: []DeltaSubset{{Name: "x", Weight: 1}}}},
		{"new-subset-dup-member", &Delta{NewSubsets: []DeltaSubset{{Name: "x", Weight: 1,
			Members: []DeltaSubsetMember{{Photo: 0, Relevance: 1}, {Photo: 0, Relevance: 1}}}}}},
	}
	for _, tc := range cases {
		if _, err := p.ApplyDelta(ctx, tc.d); err == nil {
			t.Errorf("%s: ApplyDelta succeeded, want error", tc.name)
		}
	}
	if fp, _ := p.Fingerprint(); fp != fp0 {
		t.Fatalf("fingerprint changed after rejected deltas: %s -> %s", fp0, fp)
	}
	after, err := p.Run(ctx, RunOptions{Budget: 0.4 * inst.TotalCost()})
	if err != nil {
		t.Fatal(err)
	}
	if after.Solution.Score != base.Solution.Score || len(after.Solution.Photos) != len(base.Solution.Photos) {
		t.Fatal("rejected deltas changed solve results")
	}
}

// TestApplyDeltaLSHRejected pins the LSH guard: delta maintenance cannot
// extend an LSH-prepared instance (its candidate structure derives from
// context vectors the Prepared does not retain).
func TestApplyDeltaLSHRejected(t *testing.T) {
	ctx := context.Background()
	ds, err := dataset.GeneratePublic(dataset.PublicSpecs(0.01)[0])
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.3, UseLSH: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyDelta(ctx, &Delta{Remove: []par.PhotoID{0}}); err != ErrDeltaLSH {
		t.Fatalf("err = %v, want ErrDeltaLSH", err)
	}
}

// TestDeltaFingerprintDeterministic pins the fingerprint evolution chain:
// equal starting fingerprints plus equal deltas give equal evolved
// fingerprints, and the digest is order-sensitive.
func TestDeltaFingerprintDeterministic(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	inst := par.Random(rng, par.RandomConfig{Photos: 20, Subsets: 6, BudgetFrac: 0.5, SimDensity: 0.6})
	opts := PrepareOptions{InstanceDigest: "fp-determinism"}
	d := randomChurn(rng, inst, nil, 2, 1, false)

	var fps []string
	for i := 0; i < 2; i++ {
		p, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := p.ApplyDelta(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, stats.NewFingerprint)
	}
	if fps[0] != fps[1] {
		t.Fatalf("same delta on same instance evolved different fingerprints: %s vs %s", fps[0], fps[1])
	}
	if len(d.Remove) >= 2 {
		swapped := *d
		swapped.Remove = []par.PhotoID{d.Remove[1], d.Remove[0]}
		if swapped.Digest() == d.Digest() {
			t.Fatal("digest ignores removal order")
		}
	}
}

// TestPublicChurnDifferential is the acceptance gate at benchmark scale: 1%
// churn on the P-100K public shape, then identical Run selections between
// the delta-updated Prepared and a cold Prepare over the merged dataset.
func TestPublicChurnDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("P-100K differential gate skipped in -short")
	}
	ctx := context.Background()
	spec := dataset.PublicSpecs(0.05)[4] // P-100K shape, 5000 photos
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := PrepareOptions{Tau: 0.4, InstanceDigest: "churn-gate"}
	live, err := Prepare(ctx, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	churn := spec.NumPhotos / 200 // 0.5% removals + 0.5% additions = 1% churn
	d := randomChurn(rng, live.base, nil, churn, churn, true)
	stats, err := live.ApplyDelta(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("applied %d removals, %d additions in %v (live fraction %.3f, compacted %v)",
		stats.Removed, stats.Added, stats.ApplyTime, stats.LiveFraction, stats.Compacted)
	merged, _, err := MergeDelta(ds.Instance, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Prepare(ctx, &dataset.Dataset{Instance: merged}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "P-100K 1% churn", live, cold, 0.35*merged.TotalCost(), AlgoCELF)
}

// TestDeltaDropsS0Gains: the trace — S0 gains and recorded passes — belongs
// to one layout. After Runs have filled it, ApplyDelta and a forced compaction
// must drop it, so the next Run at every GOMAXPROCS matches a cold
// Prepare of the merged instance bit for bit. The removal-only batches
// retire the photo a stale trace would rank first while keeping the photo
// count, so the trace would still fit the new layout's shape.
func TestDeltaDropsS0Gains(t *testing.T) {
	ctx := context.Background()
	for _, tau := range []float64{0, 0.35} {
		t.Run(fmt.Sprintf("tau=%v", tau), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			inst := par.Random(rng, par.RandomConfig{
				Photos: 50, Subsets: 14, BudgetFrac: 0.4, RetainFrac: 0.1, SimDensity: 0.7,
			})
			opts := PrepareOptions{Tau: tau, InstanceDigest: fmt.Sprintf("s0-drop-%v", tau)}
			live, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, opts)
			if err != nil {
				t.Fatal(err)
			}
			merged := inst
			var removed []bool
			compare := func(label string) {
				t.Helper()
				cold, err := Prepare(ctx, &dataset.Dataset{Instance: merged}, opts)
				if err != nil {
					t.Fatalf("%s: cold Prepare: %v", label, err)
				}
				gomaxprocs.Each(t, func(workers int) {
					for _, frac := range []float64{0.25, 0.5} {
						ro := RunOptions{Budget: frac * merged.TotalCost()}
						rl, err := live.Run(ctx, ro)
						if err != nil {
							t.Fatalf("%s: live Run: %v", label, err)
						}
						rc, err := cold.Run(ctx, ro)
						if err != nil {
							t.Fatalf("%s: cold Run: %v", label, err)
						}
						if keyOf(rl) != keyOf(rc) {
							t.Fatalf("%s GOMAXPROCS=%d f=%g: live %+v, cold %+v", label, workers, frac, keyOf(rl), keyOf(rc))
						}
					}
				})
				if live.trace == nil || !live.trace.Covers(0.5*merged.TotalCost()) {
					t.Fatalf("%s: CELF Runs left no trace covering their budgets", label)
				}
			}
			compare("cold")
			for batch := 0; batch < 4; batch++ {
				// Even batches retire the photo with the largest traced S0
				// gain whose removal validates: the one a stale trace would
				// rank first.
				d := randomChurn(rng, live.base, removed, 2, 2, false)
				if batch%2 == 0 {
					s0 := celf.S0Gains(live.solveTmpl)
					order := make([]int, len(s0))
					for p := range order {
						order[p] = p
					}
					sort.SliceStable(order, func(i, j int) bool { return s0[order[i]] > s0[order[j]] })
					for _, p := range order {
						if id := par.PhotoID(p); !live.base.IsRetained(id) && !isRemoved(removed, id) {
							d = &Delta{Remove: []par.PhotoID{id}}
							if _, err := resolveDelta(live.base, removed, d); err == nil {
								break
							}
						}
					}
				}
				if _, err := live.ApplyDelta(ctx, d); err != nil {
					t.Fatalf("batch %d: ApplyDelta: %v", batch, err)
				}
				if live.trace != nil {
					t.Fatalf("batch %d: ApplyDelta kept the trace", batch)
				}
				if merged, removed, err = MergeDelta(merged, removed, d); err != nil {
					t.Fatalf("batch %d: MergeDelta: %v", batch, err)
				}
				compare(fmt.Sprintf("batch %d", batch))
			}
			if err := compactNow(live); err != nil {
				t.Fatal(err)
			}
			if live.trace != nil {
				t.Fatal("the compaction kept the trace")
			}
			compare("compact")
		})
	}
}

// compactNow runs a compaction as ApplyDelta does, under the write lock.
func compactNow(p *Prepared) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compact(p.base)
}
