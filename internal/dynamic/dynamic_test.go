package dynamic

import (
	"context"
	"math/rand"
	"testing"

	"phocus/internal/celf"
	"phocus/internal/par"
	"phocus/internal/phocus"
)

func stream(rng *rand.Rand, inst *par.Instance) []par.PhotoID {
	var order []par.PhotoID
	for _, p := range rng.Perm(inst.NumPhotos()) {
		if !inst.IsRetained(par.PhotoID(p)) {
			order = append(order, par.PhotoID(p))
		}
	}
	return order
}

// coverageSeed returns the shortest prefix of order that (together with the
// retained set) gives at least one subset a positive-relevance member, which
// is what NewFeeder needs to build a preparable seed instance.
func coverageSeed(inst *par.Instance, order []par.PhotoID) []par.PhotoID {
	hasMass := func(p par.PhotoID) bool {
		for _, oc := range inst.Occurrences(p) {
			if inst.Subsets[oc.Subset].Relevance[oc.Index] > 0 {
				return true
			}
		}
		return false
	}
	for _, p := range inst.Retained {
		if hasMass(p) {
			return nil
		}
	}
	var seed []par.PhotoID
	for _, p := range order {
		seed = append(seed, p)
		if hasMass(p) {
			break
		}
	}
	return seed
}

// start prepares the engine over the seed and returns the maintainer plus
// the arrivals still to stream (the order minus the seed prefix).
func start(t *testing.T, inst *par.Instance, order []par.PhotoID, opts Options) (*Maintainer, *Feeder, []par.PhotoID) {
	t.Helper()
	seed := coverageSeed(inst, order)
	f, ds, err := NewFeeder(inst, seed)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := phocus.Prepare(context.Background(), ds, phocus.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prep, inst.Budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range f.SeedIDs() {
		if _, err := m.Consider(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	return m, f, order[len(seed):]
}

func TestArrivalVerdicts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	inst := par.Random(rng, par.RandomConfig{Photos: 40, Subsets: 20, BudgetFrac: 0.2})
	m, f, rest := start(t, inst, stream(rng, inst), Options{})
	for _, p := range rest {
		d, err := f.Reveal(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Arrive(ctx, d); err != nil {
			t.Fatal(err)
		}
		sol := m.Solution()
		if !inst.Feasible(f.Orig(sol.Photos)) {
			t.Fatalf("infeasible after arrival %d", p)
		}
	}
	st := m.Stats()
	if st.Arrivals != 40 || st.Admitted == 0 || st.Rejected == 0 {
		t.Errorf("verdict mix: %+v", st)
	}
	if st.Swapped == 0 {
		t.Error("tight budget stream produced no swaps")
	}
}

func TestArriveErrors(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	inst := par.Random(rng, par.RandomConfig{Photos: 12, Subsets: 6, BudgetFrac: 0.5})
	order := stream(rng, inst)
	m, f, rest := start(t, inst, order, Options{})
	if _, err := f.Reveal(99); err == nil {
		t.Error("out-of-range reveal accepted")
	}
	if _, err := f.Reveal(order[0]); err == nil {
		t.Error("duplicate reveal accepted")
	}
	if _, err := m.Arrive(ctx, &phocus.Delta{}); err == nil {
		t.Error("empty delta accepted")
	}
	if _, err := m.Arrive(ctx, &phocus.Delta{
		Add:    []phocus.DeltaPhoto{{Cost: 1}},
		Remove: []par.PhotoID{0},
	}); err == nil {
		t.Error("delta with removals accepted")
	}
	d, err := f.Reveal(rest[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Arrive(ctx, d); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Consider(ctx, par.PhotoID(m.Prepared().NumPhotos())); err == nil {
		t.Error("out-of-range Consider accepted")
	}
}

func TestRetainedSurviveAllSwaps(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	inst := par.Random(rng, par.RandomConfig{Photos: 30, Subsets: 15, BudgetFrac: 0.25, RetainFrac: 0.1})
	m, f, rest := start(t, inst, stream(rng, inst), Options{})
	for _, p := range rest {
		d, err := f.Reveal(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Arrive(ctx, d); err != nil {
			t.Fatal(err)
		}
		have := map[par.PhotoID]bool{}
		for _, kept := range f.Orig(m.Solution().Photos) {
			have[kept] = true
		}
		for _, r := range inst.Retained {
			if !have[r] {
				t.Fatalf("retained photo %d evicted", r)
			}
		}
	}
}

// The maintained solution must track the full re-solve closely: once every
// photo has arrived, the engine instance's relevance distribution equals the
// complete instance's, so the incremental score is directly comparable to
// solving the complete instance from scratch.
func TestMaintainedQuality(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		inst := par.Random(rng, par.RandomConfig{Photos: 50, Subsets: 25, BudgetFrac: 0.2})
		m, f, rest := start(t, inst, stream(rng, inst), Options{})
		for _, p := range rest {
			d, err := f.Reveal(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Arrive(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
		var solver celf.Solver
		oracle, err := solver.Solve(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Solution().Score; got < 0.75*oracle.Score {
			t.Errorf("trial %d: maintained %.4f below 75%% of oracle %.4f", trial, got, oracle.Score)
		}
	}
}

func TestPeriodicResolveRestoresOracleQuality(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	inst := par.Random(rng, par.RandomConfig{Photos: 60, Subsets: 30, BudgetFrac: 0.2})
	order := stream(rng, inst)
	incremental, fi, restI := start(t, inst, order, Options{})
	periodic, fp, restP := start(t, inst, order, Options{ResolveEvery: 15})
	for i := range restI {
		di, err := fi.Reveal(restI[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := incremental.Arrive(ctx, di); err != nil {
			t.Fatal(err)
		}
		dp, err := fp.Reveal(restP[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := periodic.Arrive(ctx, dp); err != nil {
			t.Fatal(err)
		}
	}
	if periodic.Stats().Resolves == 0 {
		t.Fatal("ResolveEvery never triggered")
	}
	// A final explicit resolve gives the oracle answer on the whole stream.
	if err := periodic.Resolve(ctx); err != nil {
		t.Fatal(err)
	}
	var solver celf.Solver
	oracle, err := solver.Solve(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	// The engine instance accumulated its relevances incrementally, so allow
	// a relative float tolerance against the directly normalized oracle.
	tol := 1e-9 * (1 + oracle.Score)
	if got := periodic.Solution().Score; got < oracle.Score-tol {
		t.Errorf("post-resolve score %.6f below oracle %.6f", got, oracle.Score)
	}
	if periodic.Solution().Score+tol < incremental.Solution().Score {
		t.Errorf("periodic re-solving (%.4f) lost to pure incremental (%.4f)",
			periodic.Solution().Score, incremental.Solution().Score)
	}
}

func TestDriftTrigger(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	inst := par.Random(rng, par.RandomConfig{Photos: 50, Subsets: 25, BudgetFrac: 0.15})
	m, f, rest := start(t, inst, stream(rng, inst), Options{ResolveEvery: 10, DriftFactor: 0.95})
	for _, p := range rest {
		d, err := f.Reveal(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Arrive(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Resolves == 0 {
		t.Error("no resolves despite periodic + drift policy")
	}
}

// TestStaleAdmissionGainEviction is the regression for the eviction rule:
// the maintainer must rank eviction candidates by their CURRENT marginal
// value, not the gain recorded when they were admitted. Photo a is admitted
// with a large gain, then photo b arrives and covers a's entire
// contribution; when newcomer e needs room, a (current marginal ≈ 0, stale
// admission gain 5) must be the one evicted. The old admission-density
// heuristic evicted c (stale density 4 < a's stale 5), found the swap
// unprofitable and rejected e.
func TestStaleAdmissionGainEviction(t *testing.T) {
	ctx := context.Background()
	one := par.FuncSim{N: 2, F: func(i, j int) float64 { return 1 }}
	full := &par.Instance{
		Cost:   []float64{1, 1, 1, 1}, // a, b, c, e
		Budget: 3,
		Subsets: []par.Subset{
			{Name: "A", Weight: 5, Members: []par.PhotoID{0, 1}, Relevance: []float64{0.5, 0.5}, Sim: one},
			{Name: "F", Weight: 6, Members: []par.PhotoID{1}, Relevance: []float64{1}, Sim: par.FuncSim{N: 1}},
			{Name: "G", Weight: 4, Members: []par.PhotoID{2}, Relevance: []float64{1}, Sim: par.FuncSim{N: 1}},
			{Name: "E", Weight: 3, Members: []par.PhotoID{3}, Relevance: []float64{1}, Sim: par.FuncSim{N: 1}},
		},
	}
	if err := full.Finalize(); err != nil {
		t.Fatal(err)
	}
	order := []par.PhotoID{0, 1, 2, 3}
	m, f, rest := start(t, full, order, Options{})
	if got := m.Stats().Admitted; got != 1 { // a admitted from the seed
		t.Fatalf("seed admissions = %d, want 1", got)
	}
	verdicts := make([]Verdict, 0, 3)
	for _, p := range rest {
		d, err := f.Reveal(p)
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.Arrive(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, v)
	}
	if verdicts[0] != Admitted || verdicts[1] != Admitted {
		t.Fatalf("b, c verdicts = %v, %v, want admitted", verdicts[0], verdicts[1])
	}
	if verdicts[2] != Swapped {
		t.Fatalf("e verdict = %v, want swapped (stale-gain eviction regression)", verdicts[2])
	}
	kept := map[par.PhotoID]bool{}
	for _, p := range f.Orig(m.Solution().Photos) {
		kept[p] = true
	}
	if kept[0] || !kept[1] || !kept[2] || !kept[3] {
		t.Fatalf("kept %v, want b, c, e with a evicted", f.Orig(m.Solution().Photos))
	}
	if got, want := m.Score(), 5.0+6+4+3; got < want-1e-9 {
		t.Fatalf("post-swap score %.4f, want %.4f", got, want)
	}
}

// TestResetAfterRemoval drives out-of-band removal churn through the
// Prepared directly and checks Reset drops the husk from the selection
// while keeping the rest feasible.
func TestResetAfterRemoval(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))
	inst := par.Random(rng, par.RandomConfig{Photos: 30, Subsets: 15, BudgetFrac: 0.4, SimDensity: 0.6})
	m, f, rest := start(t, inst, stream(rng, inst), Options{})
	for _, p := range rest {
		d, err := f.Reveal(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Arrive(ctx, d); err != nil {
			t.Fatal(err)
		}
	}

	// Pick a selected, non-retained photo whose subsets all keep another
	// live positive-relevance member once it is gone.
	var victim par.PhotoID = -1
	for _, p := range m.Solution().Photos {
		if m.view.IsRetained(p) {
			continue
		}
		ok := true
		for _, oc := range m.view.Occurrences(p) {
			q := &m.view.Subsets[oc.Subset]
			others := 0
			for mi, mem := range q.Members {
				if mem != p && q.Relevance[mi] > 0 {
					others++
				}
			}
			if q.Relevance[oc.Index] > 0 && others == 0 {
				ok = false
				break
			}
		}
		if ok {
			victim = p
			break
		}
	}
	if victim < 0 {
		t.Skip("no safely removable selected photo in this instance")
	}
	if _, err := m.Prepared().ApplyDelta(ctx, &phocus.Delta{Remove: []par.PhotoID{victim}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	sol := m.Solution()
	for _, p := range sol.Photos {
		if p == victim {
			t.Fatal("husked photo survived Reset")
		}
	}
	if sol.Cost > m.view.Budget+1e-9 {
		t.Fatalf("post-Reset cost %.4f over budget %.4f", sol.Cost, m.view.Budget)
	}
}
