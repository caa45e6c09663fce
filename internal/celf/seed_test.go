package celf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
)

// passLog runs one pass of variant over inst, seeded from tr when non-nil,
// and returns its log.
func passLog(t *testing.T, inst *par.Instance, v Variant, tr *Trace) []traceEvent {
	t.Helper()
	var log []traceEvent
	if _, _, err := lazyGreedy(context.Background(), inst, v, tr, &passScratch{}, &log); err != nil {
		t.Fatal(err)
	}
	return log
}

// requireSeededLog fails t unless seeded is the unseeded pass's log minus
// its initial phase: n recomputations, one of each candidate that fits
// under inst's budget, to its S0 gain. It returns n.
func requireSeededLog(t *testing.T, label string, inst *par.Instance, s0 []float64, unseeded, seeded []traceEvent) int {
	t.Helper()
	e := par.NewEvaluator(inst)
	e.Seed()
	n := 0
	for p := 0; p < inst.NumPhotos(); p++ {
		if id := par.PhotoID(p); !e.Contains(id) && e.Fits(id) {
			n++
		}
	}
	if len(unseeded) < n {
		t.Fatalf("%s: unseeded log of %d events, want at least %d initial recomputations", label, len(unseeded), n)
	}
	seen := map[par.PhotoID]bool{}
	for i, ev := range unseeded[:n] {
		if ev.selected || seen[ev.photo] || math.Float64bits(ev.gain) != math.Float64bits(s0[ev.photo]) {
			t.Fatalf("%s: unseeded event %d = %+v, want the initial recomputation of a new photo to its S0 gain", label, i, ev)
		}
		seen[ev.photo] = true
	}
	if !reflect.DeepEqual(seeded, unseeded[n:]) {
		t.Fatalf("%s: seeded log (%d events) is not the unseeded log (%d events) minus its %d initial recomputations",
			label, len(seeded), len(unseeded), n)
	}
	return n
}

// solveSeededAndNot solves inst without a trace and from tr, and fails t
// unless both give the same photos, score and cost bits, winner and
// selection count; at a budget tr covers, the seeded solve must continue tr
// rather than replace it. It then records both passes seeded from tr's S0
// gains, requires that solve's answer too, and each recorded log to be the
// unseeded pass's log minus its initial recomputations. It returns the stats
// of the unseeded solve and of the recording one.
func solveSeededAndNot(t *testing.T, label string, inst *par.Instance, tr *Trace) (plain, seeded Stats) {
	t.Helper()
	var ps Solver
	want, err := ps.Solve(context.Background(), inst)
	if err != nil {
		t.Fatalf("%s: unseeded: %v", label, err)
	}
	same := func(kind string, s *Solver, got par.Solution) {
		t.Helper()
		if !reflect.DeepEqual(got.Photos, want.Photos) {
			t.Fatalf("%s: %s photos %v, unseeded %v", label, kind, got.Photos, want.Photos)
		}
		if math.Float64bits(got.Score) != math.Float64bits(want.Score) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("%s: %s score/cost %v/%v, unseeded %v/%v", label, kind, got.Score, got.Cost, want.Score, want.Cost)
		}
		if s.LastStats.Winner != ps.LastStats.Winner || s.LastStats.Selected != ps.LastStats.Selected {
			t.Fatalf("%s: %s winner/selected %v/%d, unseeded %v/%d", label, kind,
				s.LastStats.Winner, s.LastStats.Selected, ps.LastStats.Winner, ps.LastStats.Selected)
		}
	}
	ss := Solver{Trace: tr, Scratch: &Scratch{}}
	got, err := ss.Solve(context.Background(), inst)
	if err != nil {
		t.Fatalf("%s: seeded: %v", label, err)
	}
	same("seeded", &ss, got)
	if tr.Covers(inst.Budget) && ss.Trace != tr {
		t.Fatalf("%s: a solve the trace covers replaced it", label)
	}
	rec := Solver{Trace: &Trace{s0: tr.s0, budget: math.Inf(-1)}}
	got, err = rec.Solve(context.Background(), inst)
	if err != nil {
		t.Fatalf("%s: recording: %v", label, err)
	}
	same("recording", &rec, got)
	for _, v := range []Variant{UC, CB} {
		requireSeededLog(t, fmt.Sprintf("%s %v", label, v), inst, tr.s0, passLog(t, inst, v, nil), rec.Trace.logs[v])
	}
	return ps.LastStats, rec.LastStats
}

// TestSeededSolverMatchesUnseeded: seeding both passes from a trace's S0
// gains gives the unseeded solver's selections and score bits at every
// GOMAXPROCS, with retained sets, while doing fewer gain evaluations, and
// the passes it records are the unseeded passes minus their initial
// recomputations. The trace covers the budget, so the seeded solve also
// continues it.
func TestSeededSolverMatchesUnseeded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		inst := par.Random(rng, par.RandomConfig{
			Photos: 60, Subsets: 20, BudgetFrac: 0.15 + 0.1*float64(trial%4), RetainFrac: 0.1,
		})
		gomaxprocs.Each(t, func(workers int) {
			label := fmt.Sprintf("trial %d GOMAXPROCS=%d", trial, workers)
			rec := Solver{Trace: NewTrace(inst)}
			if _, err := rec.Solve(context.Background(), inst); err != nil {
				t.Fatal(err)
			}
			if !rec.Trace.Covers(inst.Budget) {
				t.Fatalf("%s: the full solve recorded no trace covering its budget", label)
			}
			plain, seeded := solveSeededAndNot(t, label, inst, rec.Trace)
			if seeded.GainEvals >= plain.GainEvals {
				t.Errorf("%s: seeded solve made %d gain evals, unseeded %d", label, seeded.GainEvals, plain.GainEvals)
			}
		})
	}
}

// TestSeededSolverPublicLadders runs the seeded/unseeded comparison on the
// paper's P-1K shape and a scaled slice of P-100K, at every rung of the
// budget ladder the engine benchmarks sweep.
func TestSeededSolverPublicLadders(t *testing.T) {
	if testing.Short() {
		t.Skip("generates public-shape datasets")
	}
	p1k := dataset.PublicSpecs(1)[0]
	p100k := dataset.PublicSpecs(0.01)[4]
	for _, spec := range []dataset.PublicSpec{p1k, p100k} {
		spec.RetainFrac = 0.02
		ds, err := dataset.GeneratePublic(spec)
		if err != nil {
			t.Fatal(err)
		}
		base := ds.Instance
		var tr *Trace
		for _, f := range []float64{0.05, 0.10, 0.15, 0.20, 0.30} {
			var inst par.Instance
			if err := base.ViewInto(&inst, f*base.TotalCost()); err != nil {
				t.Fatal(err)
			}
			if tr == nil {
				tr = NewTrace(&inst)
			}
			gomaxprocs.Each(t, func(workers int) {
				solveSeededAndNot(t, fmt.Sprintf("%s f=%g GOMAXPROCS=%d", spec.Name, f, workers), &inst, tr)
			})
		}
	}
}

// TestSeededObserverOrderCB: CB's unseeded pass recomputes its ∞-keyed
// candidates cheapest first, not in photo-ID order, and the seeded pass's
// log is that pass's log minus those recomputations. Costs descending with
// photo ID make the two orders differ everywhere.
func TestSeededObserverOrderCB(t *testing.T) {
	inst := par.Random(rand.New(rand.NewSource(5)), par.RandomConfig{Photos: 12, Subsets: 5, BudgetFrac: 0.5})
	for p := range inst.Cost {
		inst.Cost[p] = float64(len(inst.Cost) - p)
	}
	inst.Budget = 0.5 * inst.TotalCost()
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	s0 := S0Gains(inst)
	plain := passLog(t, inst, CB, nil)
	seeded := passLog(t, inst, CB, &Trace{s0: s0, budget: math.Inf(-1)})
	n := requireSeededLog(t, "CB", inst, s0, plain, seeded)
	if n != inst.NumPhotos() {
		t.Fatalf("%d initial recomputations, want all %d photos", n, inst.NumPhotos())
	}
	for i, ev := range plain[:n] {
		if want := par.PhotoID(n - 1 - i); ev.photo != want {
			t.Fatalf("unseeded CB recomputed photo %d at %d, want the cheapest first (photo %d)", ev.photo, i, want)
		}
	}
}

// TestS0GainsWorkers: a trace's S0 gains are bit-identical at every
// GOMAXPROCS and equal to a sequential Gain against S0.
func TestS0GainsWorkers(t *testing.T) {
	inst := par.Random(rand.New(rand.NewSource(9)), par.RandomConfig{Photos: 80, Subsets: 30, BudgetFrac: 0.3, RetainFrac: 0.1})
	e := par.NewEvaluator(inst)
	e.Seed()
	gomaxprocs.Each(t, func(workers int) {
		got := S0Gains(inst)
		for p := range got {
			if want := e.Gain(par.PhotoID(p)); math.Float64bits(got[p]) != math.Float64bits(want) {
				t.Fatalf("GOMAXPROCS=%d: photo %d gain %v, want %v", workers, p, got[p], want)
			}
		}
	})
}

// TestSolverRejectsMismatchedS0Gains: a trace of another layout fails the
// solve instead of seeding the queue with wrong keys.
func TestSolverRejectsMismatchedS0Gains(t *testing.T) {
	inst := par.Figure1Instance()
	s := Solver{Trace: &Trace{s0: make([]float64, inst.NumPhotos()+1)}}
	if _, err := s.Solve(context.Background(), inst); err == nil {
		t.Fatal("solve with a trace of the wrong length succeeded")
	}
}

// tieInstance builds photos that each sit alone in a subset whose weight is
// the photo's cost times a power of two drawn from ratios: every marginal
// gain per byte is exactly one of ratios, so the online bound's fractional
// knapsack sees large groups of exact ties, interleaved by photo ID.
func tieInstance(n int, seed int64, ratios []float64) *par.Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := &par.Instance{Cost: make([]float64, n)}
	for p := 0; p < n; p++ {
		c := 0.1 + rng.Float64()
		inst.Cost[p] = c
		inst.Subsets = append(inst.Subsets, par.Subset{
			Name: fmt.Sprint(p), Weight: c * ratios[rng.Intn(len(ratios))], Members: []par.PhotoID{par.PhotoID(p)},
			Relevance: []float64{1}, Sim: par.NewDenseSim(1),
		})
	}
	inst.Budget = 0.5 * inst.TotalCost()
	if err := inst.Finalize(); err != nil {
		panic(err)
	}
	return inst
}

// TestOnlineBoundTiesDeterministic: photos with equal gain-per-cost ratios
// enter the fractional knapsack in photo-ID order, so the bound's bits equal
// a fill that walks the ratio groups best first, each in photo-ID order, on
// every call.
func TestOnlineBoundTiesDeterministic(t *testing.T) {
	ratios := []float64{4, 2, 1, 0.5}
	for seed := int64(1); seed <= 5; seed++ {
		inst := tieInstance(200, seed, ratios)
		sol := []par.PhotoID{3, 40}
		var want float64
		e := par.NewEvaluator(inst)
		for _, p := range sol {
			want += e.Add(p)
		}
		var rest []par.PhotoID
		for p := 0; p < inst.NumPhotos(); p++ {
			if id := par.PhotoID(p); !e.Contains(id) {
				rest = append(rest, id)
			}
		}
		remaining := inst.Budget
		for _, r := range ratios {
			for _, p := range rest {
				g, c := e.Gain(p), inst.Cost[p]
				if g != c*r || remaining <= 0 {
					continue
				}
				if c <= remaining {
					want += g
					remaining -= c
				} else {
					want += g * remaining / c
					remaining = 0
				}
			}
		}
		if got := OnlineBound(inst, sol); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: OnlineBound %v, ID-order fill %v", seed, got, want)
		}
		// A reused scratch answers the same bits again.
		var b BoundScratch
		for call := 1; call <= 2; call++ {
			if got := b.OnlineBound(inst, e, rest); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d call %d: bound %v, ID-order fill %v", seed, call, got, want)
			}
		}
	}
}
