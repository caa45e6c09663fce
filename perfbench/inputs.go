package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"

	"phocus/internal/dataset"
	"phocus/internal/par"
	"phocus/internal/phocus"
)

// Workload sizes. README.md explains each choice; every input below is a
// pure function of the run's seed.
const (
	tau          = 0.4  // τ-sparsification threshold on every workload
	retainFrac   = 0.02 // share of photos in the policy-retained set S0
	sweepTenants = 8    // serve_sweep: tenants, one P-1K archive each
	ingestPool   = 16   // serve_ingest: pre-serialized bodies the ops cycle over
	ingestCache  = 4    // serve_ingest: -prepare-cache-entries
	churnRemove  = 25   // engine_churn: removals per batch (0.5% of 5000)
	churnAdd     = 25   // engine_churn: additions per batch
	churnPass    = 40   // engine_churn: batches per pass over the chain
)

// ladder is the budget ladder: fractions of an archive's total cost. Ops
// cycle over it, so each rung takes a fifth of the ops.
var ladder = [...]float64{0.05, 0.10, 0.15, 0.20, 0.30}

// archive is one generated archive as the benchmark holds it: the wire body
// the server receives and the benchmark's own decoded copy of it, which the
// correctness gate scores against.
type archive struct {
	body []byte
	ref  *par.Instance
}

// budget returns rung r of the ladder for this archive.
func (a *archive) budget(r int) float64 { return ladder[r%len(ladder)] * a.ref.TotalCost() }

// subSeed derives the generator seed of input i from the run seed.
func subSeed(seed int64, i int) int64 { return seed*7919 + int64(i) + 1 }

// p1k generates archive i: the P-1K shape (1000 photos) of the paper's
// Table 2 with S0 = 2% of the photos, serialized to the server's JSON wire
// format and decoded back into the benchmark's copy.
func p1k(seed int64, i int) (*archive, error) {
	spec := dataset.PublicSpecs(1)[0]
	spec.Seed = subSeed(seed, i)
	spec.RetainFrac = retainFrac
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := par.WriteJSON(&buf, ds.Instance); err != nil {
		return nil, err
	}
	ref, err := par.ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return &archive{body: buf.Bytes(), ref: ref}, nil
}

// p1kSet generates n archives starting at index first.
func p1kSet(seed int64, first, n int) ([]*archive, error) {
	out := make([]*archive, n)
	for i := range out {
		a, err := p1k(seed, first+i)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// engineInput is the engine workloads' instance: the P-100K shape scaled by
// 0.05 (5000 photos) as the generator produces it.
type engineInput struct {
	ds *dataset.Dataset
	// engine_churn only: the churn batches, and the archive's total cost
	// after each, which its budget rung is a fraction of.
	chain  []*phocus.Delta
	totals []float64
}

// stepBudget returns the budget of churn step j: rung j of the ladder over
// the archive as batch j left it.
func (e *engineInput) stepBudget(j int) float64 { return ladder[j%len(ladder)] * e.totals[j] }

func genEngine(seed int64, withChain bool) (*engineInput, error) {
	spec := dataset.PublicSpecs(0.05)[4]
	spec.Seed = subSeed(seed, 1000)
	spec.RetainFrac = retainFrac
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		return nil, err
	}
	in := &engineInput{ds: ds}
	if withChain {
		rng := rand.New(rand.NewSource(subSeed(seed, 2000)))
		cur, removed := ds.Instance, []bool(nil)
		for len(in.chain) < churnPass {
			d := churnBatch(rng, cur, removed)
			if cur, removed, err = phocus.MergeDelta(cur, removed, d); err != nil {
				return nil, fmt.Errorf("churn batch %d: %w", len(in.chain), err)
			}
			in.chain = append(in.chain, d)
			in.totals = append(in.totals, cur.TotalCost())
		}
	}
	return in, nil
}

// materialize returns a finalized copy of inst whose subsets store their
// similarities in a DenseSim. Values are copied bit for bit, so the copy
// scores exactly like the original; par.Score on it costs array reads
// instead of embedding dot products or a stack of delta overlays. Only
// subsets passing keep (all when nil) are rebuilt; the rest are shared.
func materialize(inst *par.Instance, keep func(par.Similarity) bool) (*par.Instance, error) {
	out := &par.Instance{
		Cost:     inst.Cost,
		Retained: inst.Retained,
		Budget:   inst.Budget,
		Subsets:  make([]par.Subset, len(inst.Subsets)),
	}
	for qi, q := range inst.Subsets {
		if keep == nil || keep(q.Sim) {
			k := len(q.Members)
			d := par.NewDenseSim(k)
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if s := q.Sim.Sim(i, j); s > 0 {
						d.Set(i, j, s)
					}
				}
			}
			q.Sim = d
		}
		out.Subsets[qi] = q
	}
	if err := out.Finalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// churnBatch builds one valid churn batch against the current state of the
// chain (inst finalized, removed its husk bitmap): churnRemove removals of
// live, non-retained photos that never take a subset's last live relevance
// mass, and churnAdd photos joining 1–3 existing subsets with explicit
// similarity rows to half of the live members. It is the construction of the
// repository's BenchmarkDeltaVsColdPrepare, extended to skip husks so that
// batches chain.
func churnBatch(rng *rand.Rand, inst *par.Instance, removed []bool) *phocus.Delta {
	d := &phocus.Delta{}
	n := inst.NumPhotos()
	dead := func(p par.PhotoID) bool { return int(p) < len(removed) && removed[p] }
	pending := map[par.PhotoID]bool{}
	liveMass := make([]int, len(inst.Subsets))
	for qi := range inst.Subsets {
		for _, r := range inst.Subsets[qi].Relevance {
			if r > 0 {
				liveMass[qi]++
			}
		}
	}
	for tries := 0; len(d.Remove) < churnRemove && tries < 50*churnRemove; tries++ {
		p := par.PhotoID(rng.Intn(n))
		if pending[p] || dead(p) || inst.IsRetained(p) {
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
	addedTo := map[int][]par.PhotoID{}
	for i := 0; i < churnAdd; i++ {
		photo := par.PhotoID(n + i)
		// Same size distribution as the generator's photos (0.3–2.3 MB).
		ap := phocus.DeltaPhoto{Cost: 1e6 * (0.3 + 1.2*rng.Float64() + 0.8*rng.Float64()*rng.Float64())}
		nq := min(1+rng.Intn(3), len(inst.Subsets))
		qs := rng.Perm(len(inst.Subsets))[:nq]
		sort.Ints(qs)
		for _, qi := range qs {
			m := phocus.DeltaMembership{Subset: qi, Relevance: 0.1 + rng.Float64()}
			for _, p := range inst.Subsets[qi].Members {
				if !pending[p] && !dead(p) && rng.Float64() < 0.5 {
					m.Neighbors = append(m.Neighbors, phocus.DeltaNeighbor{Photo: p, Sim: 0.05 + 0.9*rng.Float64()})
				}
			}
			for _, p := range addedTo[qi] {
				if rng.Float64() < 0.5 {
					m.Neighbors = append(m.Neighbors, phocus.DeltaNeighbor{Photo: p, Sim: 0.05 + 0.9*rng.Float64()})
				}
			}
			addedTo[qi] = append(addedTo[qi], photo)
			ap.Memberships = append(ap.Memberships, m)
		}
		d.Add = append(d.Add, ap)
	}
	return d
}

// inputDigest accumulates every input byte a run feeds the program, so two
// runs with one seed can be shown to have had identical inputs.
type inputDigest struct{ h hash.Hash }

func newInputDigest() *inputDigest {
	d := &inputDigest{h: sha256.New()}
	for _, f := range ladder {
		d.float(f)
	}
	return d
}

func (d *inputDigest) float(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	d.h.Write(b[:])
}

func (d *inputDigest) archives(as []*archive) {
	for _, a := range as {
		d.h.Write(a.body)
	}
}

func (d *inputDigest) engine(in *engineInput) error {
	if err := par.WriteBinary(d.h, in.ds.Instance); err != nil {
		return err
	}
	enc := json.NewEncoder(d.h)
	for _, delta := range in.chain {
		if err := enc.Encode(delta); err != nil {
			return err
		}
	}
	return nil
}

func (d *inputDigest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }
