package phocus

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/embed"
	"phocus/internal/par"
	"phocus/internal/sparsify"
)

// prepareSparsifyFirst builds a Prepared in the order Prepare used before
// it compiled the true kernel first: τ-sparsify the dataset's own
// similarities (exact through sparsify's all-pairs loop, or LSH), compile the
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
			sres, err = sparsify.WithLSH(rand.New(rand.NewSource(opts.Seed)), base, ds.CtxVectors, opts.Tau)
		} else {
			sres, err = sparsify.Exact(base, opts.Tau)
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
// first and thresholding it gives the Prepared that sparsifying the
// dataset's similarities first gave — both kernels' slabs, the pair
// counters, the fingerprint and the snapshot bytes (both sides refuse an
// LSH Prepared) — on the generator's vector similarities (the engine's
// input) and on their wire-decoded SparseSims (the server's), at τ 0 and
// 0.4, exact and LSH.
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
		} {
			label := fmt.Sprintf("%s τ=%g lsh=%v", in.name, opts.Tau, opts.UseLSH)
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
			snapWant, errWant := EncodeSnapshot(want)
			if snap, err := EncodeSnapshot(got); (err == nil) != (errWant == nil) || !bytes.Equal(snap, snapWant) {
				t.Fatalf("%s: snapshot bytes differ from sparsify-first (%v, sparsify-first %v)", label, err, errWant)
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

// TestThresholdAfterDeltas: over a Prepared's true kernel after churn
// batches — tombstoned rows, appended rows and subsets, an overlay and a
// compaction — the kernel compiled from its views and thresholded at τ
// holds the slabs and pair counters of the kernel compiled over
// sparsify.Exact's all-pairs sparsification of the same views; and at the
// Prepared's own τ it holds the τ-kernel the deltas maintained, which is
// what a compaction and a snapshot decode rebuild it as.
func TestThresholdAfterDeltas(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{31, 32, 33} {
		for _, prepTau := range []float64{0.3, 0.6} {
			rng := rand.New(rand.NewSource(seed))
			inst := par.Random(rng, par.RandomConfig{Photos: 80, Subsets: 14, MaxSubset: 12, SimDensity: 0.6, RetainFrac: 0.05})
			p, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, PrepareOptions{Tau: prepTau})
			if err != nil {
				t.Fatal(err)
			}
			overlaid := 0
			for b := 0; b < 8; b++ {
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
				kb := par.CompileKernel(p.base)
				for _, tau := range []float64{0, 0.3, 0.6} {
					label := fmt.Sprintf("seed %d τ=%g batch %d threshold τ=%g", seed, prepTau, b, tau)
					want, err := sparsify.Exact(p.base, tau)
					if err != nil {
						t.Fatal(err)
					}
					got, before, after := kb.Threshold(tau)
					if before != want.PairsBefore || after != want.PairsAfter {
						t.Fatalf("%s: pairs %d/%d, all-pairs loop %d/%d", label,
							before, after, want.PairsBefore, want.PairsAfter)
					}
					sameSlabs(t, label, want.Instance.Kernel(), got)
					if tau == prepTau {
						sameSlabs(t, label+" maintained", canonicalKernel(p.solveTmpl), got)
					}
				}
			}
			if overlaid == 0 {
				t.Fatalf("seed %d: no batch left the true kernel overlaid", seed)
			}
		}
	}
}

// toCtxVectors converts wire-format vector groups to the dataset embedding
// type (a cheap per-vector header conversion).
func toCtxVectors(vecs [][][]float64) [][]embed.Vector {
	if vecs == nil {
		return nil
	}
	out := make([][]embed.Vector, len(vecs))
	for i, group := range vecs {
		out[i] = make([]embed.Vector, len(group))
		for j, v := range group {
			out[i][j] = embed.Vector(v)
		}
	}
	return out
}
