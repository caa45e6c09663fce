package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"phocus/internal/embed"
	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
)

func TestGeneratePublicSmall(t *testing.T) {
	ds, err := GeneratePublic(PublicSpec{Name: "P-test", NumPhotos: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := ds.Instance
	if inst.NumPhotos() != 300 {
		t.Fatalf("photos = %d", inst.NumPhotos())
	}
	if len(inst.Subsets) < 20 {
		t.Fatalf("only %d subsets; label machinery broken", len(inst.Subsets))
	}
	if len(ds.CtxVectors) != len(inst.Subsets) {
		t.Fatalf("CtxVectors groups %d != subsets %d", len(ds.CtxVectors), len(inst.Subsets))
	}
	for qi, q := range inst.Subsets {
		if len(ds.CtxVectors[qi]) != len(q.Members) {
			t.Fatalf("subset %d vector count mismatch", qi)
		}
	}
	// Costs in the 0.3–3 MB range.
	for p, c := range inst.Cost {
		if c < 0.3e6 || c > 3.5e6 {
			t.Fatalf("photo %d cost %.0f outside expected range", p, c)
		}
	}
}

func TestGeneratePublicDeterministic(t *testing.T) {
	a, err := GeneratePublic(PublicSpec{Name: "x", NumPhotos: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePublic(PublicSpec{Name: "x", NumPhotos: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Instance.TotalCost() != b.Instance.TotalCost() || len(a.Instance.Subsets) != len(b.Instance.Subsets) {
		t.Fatal("public generator not deterministic for fixed seed")
	}
	c, err := GeneratePublic(PublicSpec{Name: "x", NumPhotos: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Instance.TotalCost() == c.Instance.TotalCost() {
		t.Error("different seeds produced identical datasets")
	}
}

func TestPublicSubsetGrowth(t *testing.T) {
	// More photos must surface more distinct labels, mirroring Table 2's
	// growth of #subsets with #photos.
	small, err := GeneratePublic(PublicSpec{Name: "s", NumPhotos: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	large, err := GeneratePublic(PublicSpec{Name: "l", NumPhotos: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(large.Instance.Subsets) <= len(small.Instance.Subsets) {
		t.Errorf("subsets did not grow: %d (200 photos) vs %d (1000 photos)",
			len(small.Instance.Subsets), len(large.Instance.Subsets))
	}
}

func TestPublicIntraSubsetSimilarityStructure(t *testing.T) {
	ds, err := GeneratePublic(PublicSpec{Name: "sim", NumPhotos: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Photos sharing a label should be markedly more similar within that
	// label's context than random photo pairs are globally.
	var intra, cnt float64
	for qi, q := range ds.Instance.Subsets {
		for i := 0; i < len(q.Members) && i < 4; i++ {
			for j := i + 1; j < len(q.Members) && j < 4; j++ {
				intra += q.Sim.Sim(i, j)
				cnt++
			}
		}
		_ = qi
		if cnt > 400 {
			break
		}
	}
	intra /= cnt
	rng := rand.New(rand.NewSource(9))
	var inter float64
	const pairs = 300
	for k := 0; k < pairs; k++ {
		a, b := rng.Intn(400), rng.Intn(400)
		inter += embed.CosineSim01(ds.Global[a], ds.Global[b])
	}
	inter /= pairs
	if intra < inter+0.15 {
		t.Errorf("intra-subset similarity %.3f not separated from global mean %.3f", intra, inter)
	}
}

func TestSetBudget(t *testing.T) {
	ds, err := GeneratePublic(PublicSpec{Name: "b", NumPhotos: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetBudget(ds.Instance.TotalCost() / 10); err != nil {
		t.Fatalf("SetBudget: %v", err)
	}
	if err := ds.SetBudget(-1); err == nil {
		t.Error("SetBudget(-1) should fail validation")
	}
	// A budget sweep re-budgets the layout in place: the compiled kernel
	// survives, so solvers on ds.Instance compile it once per dataset.
	k := ds.Instance.Kernel()
	for _, frac := range []float64{0.05, 0.2, 1} {
		b := frac * ds.Instance.TotalCost()
		if err := ds.SetBudget(b); err != nil {
			t.Fatalf("SetBudget(%g): %v", b, err)
		}
		if ds.Instance.Budget != b {
			t.Fatalf("Budget = %g, want %g", ds.Instance.Budget, b)
		}
		if got := ds.Instance.Kernel(); got != k {
			t.Fatalf("SetBudget(%g) replaced the kernel", b)
		}
	}
}

func TestGlobalSim(t *testing.T) {
	ds, err := GeneratePublic(PublicSpec{Name: "g", NumPhotos: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.GlobalSim(3, 3); got != 1 {
		t.Errorf("self GlobalSim = %g", got)
	}
	s := ds.GlobalSim(0, 1)
	if s < 0 || s > 1 {
		t.Errorf("GlobalSim out of range: %g", s)
	}
	if s != ds.GlobalSim(1, 0) {
		t.Error("GlobalSim not symmetric")
	}
}

func TestGenerateECSmall(t *testing.T) {
	ds, err := GenerateEC(ECSpec{Domain: "Fashion", NumProducts: 300, NumQueries: 20, TopK: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	inst := ds.Instance
	if got := len(inst.Subsets); got == 0 || got > 20 {
		t.Fatalf("subsets = %d, want in (0, 20]", got)
	}
	if inst.NumPhotos() == 0 || inst.NumPhotos() > 300 {
		t.Fatalf("photos = %d", inst.NumPhotos())
	}
	if len(ds.Photos) != inst.NumPhotos() || len(ds.Global) != inst.NumPhotos() {
		t.Fatal("side arrays misaligned")
	}
	// Costs come from the JPEG size model: ≥ 0.3 MB.
	for _, c := range inst.Cost {
		if c < 3e5 {
			t.Fatalf("cost %.0f below size-model floor", c)
		}
	}
	// Weights normalized over subsets.
	var wsum float64
	for _, q := range inst.Subsets {
		wsum += q.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("subset weights sum to %g, want 1", wsum)
	}
}

func TestGenerateECUnknownDomain(t *testing.T) {
	if _, err := GenerateEC(ECSpec{Domain: "Toys"}); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestECQueriesMatchDomain(t *testing.T) {
	ds, err := GenerateEC(ECSpec{Domain: "Electronics", NumProducts: 200, NumQueries: 15, TopK: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The most generic queries are the bare product types.
	types := map[string]bool{}
	for _, ty := range domainVocab["Electronics"].types {
		types[ty] = true
	}
	var generic int
	for _, q := range ds.Instance.Subsets {
		if types[q.Name] {
			generic++
		}
	}
	if generic < 5 {
		t.Errorf("only %d generic type queries among subsets", generic)
	}
}

func TestSpecsScaling(t *testing.T) {
	full := PublicSpecs(1)
	if len(full) != 5 || full[0].NumPhotos != 1000 || full[4].NumPhotos != 100000 {
		t.Errorf("PublicSpecs(1) wrong: %+v", full)
	}
	tiny := PublicSpecs(0.01)
	if tiny[4].NumPhotos != 1000 {
		t.Errorf("scaled P-100K = %d photos, want 1000", tiny[4].NumPhotos)
	}
	if tiny[0].NumPhotos != 20 {
		t.Errorf("scaled P-1K = %d photos, want floor 20", tiny[0].NumPhotos)
	}
	ec := ECSpecs(0.01)
	if len(ec) != 3 {
		t.Fatalf("ECSpecs returned %d specs", len(ec))
	}
	for _, s := range ec {
		if s.NumProducts < 60 || s.NumQueries < 12 || s.TopK < 8 {
			t.Errorf("EC scaling floors violated: %+v", s)
		}
	}
	// Out-of-range scale falls back to 1.
	if PublicSpecs(7)[0].NumPhotos != 1000 {
		t.Error("invalid scale not clamped")
	}
}

func TestSummary(t *testing.T) {
	ds, err := GeneratePublic(PublicSpec{Name: "P-sum", NumPhotos: 80, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Summarize()
	if s.Photos != 80 || s.Name != "P-sum" || s.Subsets != len(ds.Instance.Subsets) {
		t.Errorf("summary %+v inconsistent", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestVecSim(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := embed.RandomUnit(rng, 8)
	b := embed.RandomUnit(rng, 8)
	v := vecSim{vecs: []embed.Vector{a, b}}
	if v.Len() != 2 {
		t.Error("Len mismatch")
	}
	if v.Sim(0, 0) != 1 {
		t.Error("diagonal must be 1")
	}
	want := embed.CosineSim01(a, b)
	if got := v.Sim(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Sim = %g, want %g", got, want)
	}
	if v.Sim(0, 1) != v.Sim(1, 0) {
		t.Error("not symmetric")
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(poisson(rng, 2.5))
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.1 {
		t.Errorf("poisson(2.5) sample mean %.3f", mean)
	}
	if poisson(rng, 0) != 0 {
		t.Error("poisson(0) must be 0")
	}
}

func TestZipfAndSampling(t *testing.T) {
	w := zipfWeights(4, 1)
	if w[0] != 1 || math.Abs(w[3]-0.25) > 1e-12 {
		t.Errorf("zipfWeights = %v", w)
	}
	cum := cumulative(w)
	if math.Abs(cum[3]-(1+0.5+1.0/3+0.25)) > 1e-12 {
		t.Errorf("cumulative = %v", cum)
	}
	rng := rand.New(rand.NewSource(14))
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[sampleIndex(rng, cum)]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]) {
		t.Errorf("sampling not Zipf-ordered: %v", counts)
	}
}

func TestPublicRetained(t *testing.T) {
	ds, err := GeneratePublic(PublicSpec{Name: "r", NumPhotos: 100, Seed: 15, RetainFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Instance.Retained) == 0 {
		t.Error("no retained photos despite RetainFrac")
	}
	for _, p := range ds.Instance.Retained {
		if p < 0 || int(p) >= 100 {
			t.Fatalf("retained %d out of range", p)
		}
	}
}

var _ par.Similarity = vecSim{} // interface check

func TestGeneratedSimilaritiesWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pub, err := GeneratePublic(PublicSpec{Name: "chk", NumPhotos: 150, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := par.CheckSimilarity(rng, pub.Instance, 100); err != nil {
		t.Errorf("public dataset similarity defect: %v", err)
	}
	ec, err := GenerateEC(ECSpec{Domain: "Electronics", NumProducts: 150, NumQueries: 15, TopK: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := par.CheckSimilarity(rng, ec.Instance, 100); err != nil {
		t.Errorf("EC dataset similarity defect: %v", err)
	}
}

// TestParallelFor: EC generation's parallel embedding pass gives the same
// dataset at GOMAXPROCS 1, where it runs as a plain loop, and at 4.
func TestParallelFor(t *testing.T) {
	spec := ECSpec{Domain: "Fashion", NumProducts: 120, NumQueries: 12, TopK: 8, Seed: 5}
	var runs [2]*Dataset
	for i, n := range []int{1, 4} {
		gomaxprocs.Set(t, n)
		ds, err := GenerateEC(spec)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = ds
	}
	if !reflect.DeepEqual(runs[0].Global, runs[1].Global) || !reflect.DeepEqual(runs[0].CtxVectors, runs[1].CtxVectors) {
		t.Fatal("EC embeddings differ between GOMAXPROCS 1 and 4")
	}
	if a, b := runs[0].Instance, runs[1].Instance; a.NumPhotos() != b.NumPhotos() || a.TotalCost() != b.TotalCost() {
		t.Fatal("EC instances differ between GOMAXPROCS 1 and 4")
	}
}

func TestGenerateECDeterministic(t *testing.T) {
	spec := ECSpec{Domain: "Fashion", NumProducts: 120, NumQueries: 12, TopK: 8, Seed: 5}
	a, err := GenerateEC(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateEC(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Instance.NumPhotos() != b.Instance.NumPhotos() || a.Instance.TotalCost() != b.Instance.TotalCost() {
		t.Fatal("EC generation not deterministic")
	}
	for p := range a.Global {
		for d := range a.Global[p] {
			if a.Global[p][d] != b.Global[p][d] {
				t.Fatalf("embedding %d differs at dim %d (parallel pass nondeterministic?)", p, d)
			}
		}
	}
}
