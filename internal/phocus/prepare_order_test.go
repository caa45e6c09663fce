package phocus

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/par"
	"phocus/internal/sparsify"
)

// simOnly hides a similarity's neighbour listing, so sparsify.Exact takes
// its all-pairs loop over it.
type simOnly struct{ par.Similarity }

// allPairs returns a copy of inst whose similarities are hidden behind
// simOnly.
func allPairs(inst *par.Instance) *par.Instance {
	out := *inst
	out.Subsets = slices.Clone(inst.Subsets)
	for qi := range out.Subsets {
		out.Subsets[qi].Sim = simOnly{inst.Subsets[qi].Sim}
	}
	return &out
}

// prepareSparsifyFirst builds a Prepared in the order Prepare used before
// it compiled the true kernel first: τ-sparsify the dataset's own
// similarities (exact through the all-pairs loop, or LSH), compile the
// sparse kernel, then compile the base kernel over a clone of the dataset's
// subsets.
func prepareSparsifyFirst(t *testing.T, ds *dataset.Dataset, opts PrepareOptions) *Prepared {
	t.Helper()
	inst := ds.Instance
	base := &par.Instance{Cost: inst.Cost, Retained: inst.Retained, Budget: inst.TotalCost(), Subsets: inst.Subsets}
	if err := base.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := &Prepared{opts: opts}
	var ks *par.Kernel
	if opts.Tau > 0 {
		var sres sparsify.Result
		var err error
		if opts.UseLSH {
			sres, err = sparsify.WithLSH(rand.New(rand.NewSource(opts.Seed)), base, ds.CtxVectors, opts.Tau, opts.Workers)
		} else {
			sres, err = sparsify.Exact(allPairs(base), opts.Tau, opts.Workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		p.OriginalPairs, p.SparsifiedPairs = sres.PairsBefore, sres.PairsAfter
		ks = sres.Instance.Kernel()
	}
	base.Subsets = slices.Clone(base.Subsets)
	kb := base.Kernel()
	par.SetKernelSims(base.Subsets, kb)
	if ks == nil {
		ks = kb
	}
	if err := p.setKernels(base, kb, ks); err != nil {
		t.Fatal(err)
	}
	p.sizeBytes = p.sizeBytesLocked()
	return p
}

// TestPrepareKernelFirstMatchesSparsifyFirst: compiling the true kernel
// first and sparsifying its rows gives the Prepared that sparsifying the
// dataset's similarities first gave — both kernels' slabs, the pair
// counters, the fingerprint and the snapshot bytes — on the generator's
// vector similarities (the engine's input) and on their wire-decoded
// SparseSims (the server's), at τ 0 and 0.4, exact and LSH.
func TestPrepareKernelFirstMatchesSparsifyFirst(t *testing.T) {
	ctx := context.Background()
	gen, err := dataset.GeneratePublic(dataset.PublicSpecs(0.3)[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := par.WriteJSONVectors(&buf, gen.Instance, ctxVectorGroups(gen)); err != nil {
		t.Fatal(err)
	}
	wireInst, vecs, err := par.DecodeJSONVectors(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	wire := &dataset.Dataset{Instance: wireInst, CtxVectors: toCtxVectors(vecs)}
	for _, in := range []struct {
		name string
		ds   *dataset.Dataset
	}{{"generator", gen}, {"wire", wire}} {
		for _, opts := range []PrepareOptions{
			{Tau: 0},
			{Tau: 0.4},
			{Tau: 0.4, UseLSH: true, Seed: 7},
			{Tau: 0.4, Workers: 1},
		} {
			label := fmt.Sprintf("%s τ=%g lsh=%v workers=%d", in.name, opts.Tau, opts.UseLSH, opts.Workers)
			want := prepareSparsifyFirst(t, in.ds, opts)
			got, err := Prepare(ctx, in.ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameSlabs(t, label+" base", want.base.Kernel(), got.base.Kernel())
			sameSlabs(t, label+" sparse", solveKernel(want), solveKernel(got))
			if got.OriginalPairs != want.OriginalPairs || got.SparsifiedPairs != want.SparsifiedPairs {
				t.Fatalf("%s: pairs %d/%d, sparsify-first %d/%d", label,
					got.OriginalPairs, got.SparsifiedPairs, want.OriginalPairs, want.SparsifiedPairs)
			}
			fpWant, err := want.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fp, err := got.Fingerprint(); err != nil || fp != fpWant {
				t.Fatalf("%s: fingerprint %s (%v), sparsify-first %s", label, fp, err, fpWant)
			}
			snapWant, err := EncodeSnapshot(want)
			if err != nil {
				t.Fatal(err)
			}
			if snap, err := EncodeSnapshot(got); err != nil || !bytes.Equal(snap, snapWant) {
				t.Fatalf("%s: snapshot bytes differ from sparsify-first (%v)", label, err)
			}
			if got.SizeBytes() != want.SizeBytes() {
				t.Fatalf("%s: SizeBytes %d, sparsify-first %d", label, got.SizeBytes(), want.SizeBytes())
			}
		}
	}
}

// ctxVectorGroups converts a dataset's context vectors to the wire form's
// element type.
func ctxVectorGroups(ds *dataset.Dataset) [][][]float64 {
	out := make([][][]float64, len(ds.CtxVectors))
	for qi, group := range ds.CtxVectors {
		out[qi] = make([][]float64, len(group))
		for mi, v := range group {
			out[qi][mi] = v
		}
	}
	return out
}

// TestSparsifyRowWalkAfterDeltas: over kernel views of a Prepared's true
// kernel after churn batches — tombstoned rows, appended rows and subsets,
// an overlay and a compaction — sparsify.Exact's row walk gives the rows,
// bits and pair counters of its all-pairs loop over the same views.
func TestSparsifyRowWalkAfterDeltas(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	inst := par.Random(rng, par.RandomConfig{Photos: 80, Subsets: 14, MaxSubset: 12, SimDensity: 0.6, RetainFrac: 0.05})
	p, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, PrepareOptions{Tau: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	overlaid := 0
	for b := 0; b < 6; b++ {
		if _, err := p.ApplyDelta(ctx, randomChurn(rng, p.base, p.removed, 3, 3, b%2 == 0)); err != nil {
			t.Fatal(err)
		}
		if b == 3 {
			if err := compactNow(p); err != nil {
				t.Fatal(err)
			}
		}
		if !p.base.Kernel().Canonical() {
			overlaid++
		}
		for _, tau := range []float64{0, 0.3, 0.6} {
			want, err := sparsify.Exact(allPairs(p.base), tau, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sparsify.Exact(p.base, tau, 1)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("batch %d τ=%g", b, tau)
			if got.PairsBefore != want.PairsBefore || got.PairsAfter != want.PairsAfter {
				t.Fatalf("%s: pairs %d/%d, all-pairs loop %d/%d", label,
					got.PairsBefore, got.PairsAfter, want.PairsBefore, want.PairsAfter)
			}
			for qi := range want.Instance.Subsets {
				w := want.Instance.Subsets[qi].Sim.(par.NeighborLister)
				g := got.Instance.Subsets[qi].Sim.(par.NeighborLister)
				for i := 0; i < w.Len(); i++ {
					if wr, gr := w.AppendNeighbors(nil, i), g.AppendNeighbors(nil, i); !slices.EqualFunc(wr, gr,
						func(a, b par.Neighbor) bool {
							return a.Index == b.Index && math.Float64bits(a.Sim) == math.Float64bits(b.Sim)
						}) {
						t.Fatalf("%s: subset %d row %d: %v, all-pairs loop %v", label, qi, i, gr, wr)
					}
				}
			}
		}
	}
	if overlaid == 0 {
		t.Fatal("no batch left the true kernel overlaid")
	}
}
