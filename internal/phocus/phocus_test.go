package phocus

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"phocus/internal/imagesim"
	"phocus/internal/par"
	"phocus/internal/tagging"
)

// studio builds a small synthetic photo collection over nc categories with
// per-photo titles, k photos per category.
func studio(seed int64, nc, perCat int) ([]Photo, []*imagesim.CategoryModel) {
	rng := rand.New(rand.NewSource(seed))
	cfg := imagesim.DefaultGenConfig()
	names := []string{"shirt", "shoes", "chair", "lamp", "camera", "bike"}
	var photos []Photo
	var cats []*imagesim.CategoryModel
	for c := 0; c < nc; c++ {
		cat := imagesim.NewCategoryModel(rng, names[c%len(names)])
		cats = append(cats, cat)
		for k := 0; k < perCat; k++ {
			img := cat.Generate(rng, len(photos), cfg)
			img.Category = c
			photos = append(photos, Photo{
				Image: img,
				Text:  "photo of a " + cat.Name,
			})
		}
	}
	return photos, cats
}

func TestBuildDirect(t *testing.T) {
	photos, _ := studio(1, 2, 4)
	ds, err := BuildDirect(photos, []SubsetSpec{
		{Name: "first", Weight: 3, Members: []int{0, 1, 2, 3}},
		{Name: "second", Weight: 1, Members: []int{4, 5, 6, 7}, Relevance: []float64{4, 3, 2, 1}},
	}, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := ds.Instance
	if len(inst.Subsets) != 2 || inst.NumPhotos() != 8 {
		t.Fatalf("shape: %d subsets, %d photos", len(inst.Subsets), inst.NumPhotos())
	}
	// Uniform relevance for the first subset.
	for _, r := range inst.Subsets[0].Relevance {
		if math.Abs(r-0.25) > 1e-9 {
			t.Errorf("uniform relevance = %v", inst.Subsets[0].Relevance)
		}
	}
	// Explicit relevance normalized.
	if got := inst.Subsets[1].Relevance[0]; math.Abs(got-0.4) > 1e-9 {
		t.Errorf("normalized relevance[0] = %g, want 0.4", got)
	}
	// Same-category photos must be similar in-context.
	if got := inst.Subsets[0].Sim.Sim(0, 1); got < 0.5 {
		t.Errorf("intra-category contextual sim = %g, want high", got)
	}
}

func TestBuildDirectErrors(t *testing.T) {
	photos, _ := studio(2, 1, 2)
	cases := []struct {
		name    string
		subsets []SubsetSpec
		wantSub string
	}{
		{"relevance mismatch", []SubsetSpec{{Name: "q", Weight: 1, Members: []int{0}, Relevance: []float64{1, 2}}}, "relevance"},
		{"member out of range", []SubsetSpec{{Name: "q", Weight: 1, Members: []int{99}}}, "out of range"},
		{"bad weight", []SubsetSpec{{Name: "q", Weight: 0, Members: []int{0}}}, "weight"},
		{"no subsets", nil, "no non-empty subsets"},
	}
	for _, tc := range cases {
		_, err := BuildDirect(photos, tc.subsets, BuildOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantSub)
		}
	}
	if _, err := BuildDirect(nil, []SubsetSpec{{Name: "q", Weight: 1}}, BuildOptions{}); err == nil {
		t.Error("no photos accepted")
	}
	broken := []Photo{{Image: nil}}
	if _, err := BuildDirect(broken, []SubsetSpec{{Name: "q", Weight: 1, Members: []int{0}}}, BuildOptions{}); err == nil {
		t.Error("nil image accepted")
	}
}

func TestBuildFromQueries(t *testing.T) {
	photos, _ := studio(3, 3, 5)
	ds, err := BuildFromQueries(photos, []Query{
		{Text: "shirt", Weight: 5},
		{Text: "shoes", Weight: 2},
		{Text: "nonexistent zebra", Weight: 1},
	}, BuildOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Instance.Subsets); got != 2 {
		t.Fatalf("subsets = %d, want 2 (empty query dropped)", got)
	}
	// The shirt subset contains exactly the 5 shirt photos.
	if got := len(ds.Instance.Subsets[0].Members); got != 5 {
		t.Errorf("shirt subset has %d members, want 5", got)
	}
}

func TestBuildFromTags(t *testing.T) {
	photos, cats := studio(4, 3, 6)
	tagger := tagging.New(imagesim.DefaultEmbeddingConfig())
	for ci, cat := range cats {
		var examples []*imagesim.Photo
		for i, p := range photos {
			if p.Image.Category == ci {
				examples = append(examples, photos[i].Image)
			}
		}
		tagger.Learn(cat.Name, examples)
	}
	ds, err := BuildFromTags(photos, tagger, BuildOptions{Seed: 3, MinTagConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Instance.Subsets); got == 0 {
		t.Fatal("tagging produced no subsets")
	}
	// Heavier tags get heavier weights (weight = tag frequency).
	for _, q := range ds.Instance.Subsets {
		if q.Weight != float64(len(q.Members)) {
			t.Errorf("subset %q weight %g != member count %d", q.Name, q.Weight, len(q.Members))
		}
	}
}

func TestSolveDefaultKeepsEverything(t *testing.T) {
	photos, _ := studio(5, 2, 4)
	ds, err := BuildDirect(photos, []SubsetSpec{
		{Name: "all", Weight: 1, Members: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}, BuildOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prepareRun(ds, PrepareOptions{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Photos) != 8 || len(res.Archived) != 0 {
		t.Fatalf("default budget should keep all: kept %d archived %d",
			len(res.Solution.Photos), len(res.Archived))
	}
	if math.Abs(res.Solution.Score-1) > 1e-9 {
		t.Errorf("score = %g, want 1 (full coverage of unit-weight subset)", res.Solution.Score)
	}
}

func TestSolveWithBudgetAndBound(t *testing.T) {
	photos, _ := studio(6, 3, 5)
	var members []int
	for i := range photos {
		members = append(members, i)
	}
	ds, err := BuildDirect(photos, []SubsetSpec{
		{Name: "a", Weight: 2, Members: members[:10]},
		{Name: "b", Weight: 1, Members: members[5:]},
	}, BuildOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	budget := ds.Instance.TotalCost() * 0.3
	res, err := prepareRun(ds, PrepareOptions{}, RunOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Cost > budget {
		t.Errorf("cost %.0f exceeds budget %.0f", res.Solution.Cost, budget)
	}
	if len(res.Archived)+len(res.Solution.Photos) != len(photos) {
		t.Error("archived + retained != all photos")
	}
	if res.CertifiedRatio <= 0 || res.CertifiedRatio > 1+1e-9 {
		t.Errorf("certified ratio %g out of range", res.CertifiedRatio)
	}
	if res.OnlineBound < res.Solution.Score-1e-9 {
		t.Errorf("online bound %g below score %g", res.OnlineBound, res.Solution.Score)
	}
}

func TestSolveWithRetained(t *testing.T) {
	photos, _ := studio(7, 2, 5)
	var members []int
	for i := range photos {
		members = append(members, i)
	}
	ds, err := BuildDirect(photos, []SubsetSpec{{Name: "a", Weight: 1, Members: members}}, BuildOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ds.Instance.Retained = []par.PhotoID{9}
	if err := ds.Instance.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := prepareRun(ds, PrepareOptions{}, RunOptions{Budget: ds.Instance.TotalCost() * 0.4})
	if err != nil {
		t.Fatal(err)
	}
	has := false
	for _, p := range res.Solution.Photos {
		if p == 9 {
			has = true
		}
	}
	if !has {
		t.Error("retained photo 9 missing")
	}
}

func TestSolveSparsifiedPaths(t *testing.T) {
	photos, _ := studio(8, 4, 6)
	var members []int
	for i := range photos {
		members = append(members, i)
	}
	ds, err := BuildDirect(photos, []SubsetSpec{
		{Name: "a", Weight: 1, Members: members},
		{Name: "b", Weight: 2, Members: members[:12]},
	}, BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	budget := ds.Instance.TotalCost() * 0.35
	full, err := prepareRun(ds, PrepareOptions{}, RunOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	exactSp, err := prepareRun(ds, PrepareOptions{Tau: 0.5}, RunOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	lshSp, err := prepareRun(ds, PrepareOptions{Tau: 0.5, UseLSH: true, Seed: 1}, RunOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if exactSp.OriginalPairs == 0 || exactSp.SparsifiedPairs > exactSp.OriginalPairs {
		t.Errorf("pair accounting wrong: %d → %d", exactSp.OriginalPairs, exactSp.SparsifiedPairs)
	}
	// Quality after sparsification stays close to the full solve (scores
	// are under the true objective).
	for name, r := range map[string]*Result{"exact-sparsify": exactSp, "lsh-sparsify": lshSp} {
		if r.Solution.Score < 0.8*full.Solution.Score {
			t.Errorf("%s lost too much quality: %.4f vs %.4f", name, r.Solution.Score, full.Solution.Score)
		}
	}
}

func TestSolveAlgorithms(t *testing.T) {
	photos, _ := studio(9, 2, 3)
	ds, err := BuildDirect(photos, []SubsetSpec{
		{Name: "a", Weight: 1, Members: []int{0, 1, 2, 3, 4, 5}},
	}, BuildOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	budget := ds.Instance.TotalCost() * 0.4
	var scores []float64
	for _, algo := range []Algorithm{AlgoCELF, AlgoSviridenko, AlgoExact} {
		res, err := prepareRun(ds, PrepareOptions{}, RunOptions{Budget: budget, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		scores = append(scores, res.Solution.Score)
	}
	// exact ≥ sviridenko ≥ (1-1/e)·exact; exact ≥ celf.
	exactScore := scores[2]
	if scores[1] > exactScore+1e-9 || scores[0] > exactScore+1e-9 {
		t.Errorf("approximations beat exact: %v", scores)
	}
	if scores[1] < (1-1/math.E)*exactScore-1e-9 {
		t.Errorf("sviridenko %g below guarantee of exact %g", scores[1], exactScore)
	}
	if _, err := prepareRun(ds, PrepareOptions{}, RunOptions{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
