package celf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
)

// traceInstance builds one of the fuzz target's instance shapes, with a
// retained set S0:
//
//   - shape 0: a par.Random instance;
//   - shape 1: tieInstance's exact gain-per-byte ties;
//   - shape 2: a par.Random instance where every fourth photo costs 40×
//     more, so it does not fit under small budgets from the start.
func traceInstance(seed int64, shape uint8, n int) *par.Instance {
	rng := rand.New(rand.NewSource(seed))
	var inst *par.Instance
	switch shape % 3 {
	case 0:
		return par.Random(rng, par.RandomConfig{Photos: n, Subsets: n/3 + 1, BudgetFrac: 1, RetainFrac: 0.1})
	case 1:
		inst = tieInstance(n, seed, []float64{4, 2, 1, 0.5})
	default:
		inst = par.Random(rng, par.RandomConfig{Photos: n, Subsets: n/3 + 1, BudgetFrac: 1})
		for p := 0; p < n; p += 4 {
			inst.Cost[p] *= 40
		}
	}
	inst.Retained = nil
	for p := 1; p < n; p += 9 {
		inst.Retained = append(inst.Retained, par.PhotoID(p))
	}
	inst.Budget = inst.TotalCost()
	if err := inst.Finalize(); err != nil {
		panic(err)
	}
	return inst
}

// traceLadder returns budgets at the given fractions of the way from C(S0)
// to the total cost, ascending.
func traceLadder(inst *par.Instance, fracs ...float64) []float64 {
	var floor float64
	for _, p := range inst.Retained {
		floor += inst.Cost[p]
	}
	budgets := make([]float64, len(fracs))
	for i, f := range fracs {
		budgets[i] = floor + f*(inst.TotalCost()-floor)
	}
	slices.Sort(budgets)
	return budgets
}

// sameSolution fails t unless got and want have the same photos in the same
// order and the same score and cost bits.
func sameSolution(t *testing.T, label string, got, want par.Solution) {
	t.Helper()
	if !slices.Equal(got.Photos, want.Photos) {
		t.Fatalf("%s: photos %v, want %v", label, got.Photos, want.Photos)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: score/cost %v/%v, want %v/%v", label, got.Score, got.Cost, want.Score, want.Cost)
	}
}

// checkTraceContinue records both passes at every budget of the ladder and
// continues them at every budget at or below it: each continued pass, and
// each continued Solve at GOMAXPROCS 1, 2 and 8, must equal a fresh unseeded
// one.
func checkTraceContinue(t *testing.T, inst *par.Instance, budgets []float64) {
	ctx := context.Background()
	views := make([]par.Instance, len(budgets))
	for i, b := range budgets {
		if err := inst.ViewInto(&views[i], b); err != nil {
			t.Fatal(err)
		}
	}
	s0 := S0Gains(inst)
	var ps passScratch
	for j := range views {
		rec := &Trace{s0: s0, budget: budgets[j]}
		for _, v := range []Variant{UC, CB} {
			var log []traceEvent
			if _, _, err := lazyGreedy(ctx, &views[j], v, &Trace{s0: s0, budget: math.Inf(-1)}, &ps, &log); err != nil {
				t.Fatal(err)
			}
			rec.logs[v] = log
		}
		for i := 0; i <= j; i++ {
			for _, v := range []Variant{UC, CB} {
				label := fmt.Sprintf("%v B=%g traced at %g", v, budgets[i], budgets[j])
				want, wantStats, err := LazyGreedy(ctx, &views[i], v, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := lazyGreedy(ctx, &views[i], v, rec, &ps, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameSolution(t, label, got, want)
				if stats.Selected != wantStats.Selected || stats.TracePrefix > stats.Selected {
					t.Fatalf("%s: selected %d (prefix %d), want %d", label, stats.Selected, stats.TracePrefix, wantStats.Selected)
				}
			}
			gomaxprocs.Each(t, func(workers int) {
				label := fmt.Sprintf("Solve GOMAXPROCS=%d B=%g traced at %g", workers, budgets[i], budgets[j])
				var fresh Solver
				want, err := fresh.Solve(ctx, &views[i])
				if err != nil {
					t.Fatal(err)
				}
				s := Solver{Trace: rec, Scratch: &Scratch{}}
				got, err := s.Solve(ctx, &views[i])
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameSolution(t, label, got, want)
				if s.LastStats.Selected != fresh.LastStats.Selected || s.LastStats.Winner != fresh.LastStats.Winner {
					t.Fatalf("%s: winner/selected %v/%d, want %v/%d", label,
						s.LastStats.Winner, s.LastStats.Selected, fresh.LastStats.Winner, fresh.LastStats.Selected)
				}
				if s.Trace != rec {
					t.Fatalf("%s: a continued solve replaced the trace", label)
				}
			})
		}
	}
}

// FuzzTraceContinue: a pass continued from a trace recorded at any budget
// B' ≥ B gives the photos, score and cost bits and selection count of a
// fresh pass at B, for UC, CB and Algorithm 1 at every GOMAXPROCS, on
// random instances with retained sets, exact gain ties, and photos that do
// not fit from the start.
func FuzzTraceContinue(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint16(5000), uint16(20000), uint16(50000))
	f.Add(int64(2), uint8(1), uint8(60), uint16(0), uint16(30000), uint16(65535))
	f.Add(int64(3), uint8(2), uint8(50), uint16(3000), uint16(9000), uint16(40000))
	f.Add(int64(4), uint8(0), uint8(12), uint16(100), uint16(100), uint16(65535))
	f.Add(int64(5), uint8(1), uint8(90), uint16(15000), uint16(16000), uint16(17000))
	f.Add(int64(6), uint8(2), uint8(30), uint16(0), uint16(1), uint16(2))
	f.Fuzz(func(t *testing.T, seed int64, shape, n uint8, a, b, c uint16) {
		photos := 2 + int(n)%120
		inst := traceInstance(seed, shape, photos)
		frac := func(x uint16) float64 { return float64(x) / math.MaxUint16 }
		checkTraceContinue(t, inst, traceLadder(inst, frac(a), frac(b), frac(c)))
	})
}

// TestTraceRecordsAboveItsBudget: a Solve above the trace's budget runs in
// full and replaces Solver.Trace with a record that covers its budget and
// shares the S0 gains; a Solve at or below it keeps the trace and replays
// a prefix, doing fewer gain evaluations than the full pass.
func TestTraceRecordsAboveItsBudget(t *testing.T) {
	ctx := context.Background()
	inst := traceInstance(11, 0, 80)
	budgets := traceLadder(inst, 0.2, 0.4)
	var lo, hi par.Instance
	if err := inst.ViewInto(&lo, budgets[0]); err != nil {
		t.Fatal(err)
	}
	if err := inst.ViewInto(&hi, budgets[1]); err != nil {
		t.Fatal(err)
	}
	seed := NewTrace(inst)
	if seed.Covers(0) {
		t.Fatal("a trace without logs covers a budget")
	}
	s := Solver{Trace: seed}
	if _, err := s.Solve(ctx, &lo); err != nil {
		t.Fatal(err)
	}
	atLo := s.Trace
	if atLo == seed || !atLo.Covers(budgets[0]) || atLo.Covers(budgets[1]) || &atLo.s0[0] != &seed.s0[0] {
		t.Fatal("the full solve at the low budget did not record a trace covering exactly that budget")
	}
	if s.LastStats.TracePrefix != 0 {
		t.Fatalf("full pass reports a trace prefix of %d", s.LastStats.TracePrefix)
	}
	if _, err := s.Solve(ctx, &hi); err != nil {
		t.Fatal(err)
	}
	atHi := s.Trace
	if atHi == atLo || !atHi.Covers(budgets[1]) {
		t.Fatal("the solve above the traced budget did not record a new trace")
	}
	full := s.LastStats
	if _, err := s.Solve(ctx, &hi); err != nil {
		t.Fatal(err)
	}
	if s.Trace != atHi {
		t.Fatal("a solve the trace covers replaced it")
	}
	cont := s.LastStats
	if cont.TracePrefix == 0 || cont.TracePrefix != cont.Selected {
		t.Fatalf("continued solve at the traced budget replayed %d of %d selections", cont.TracePrefix, cont.Selected)
	}
	if cont.GainEvals >= full.GainEvals || cont.PQPops >= full.PQPops {
		t.Fatalf("continued solve made %d evals/%d pops, full pass %d/%d", cont.GainEvals, cont.PQPops, full.GainEvals, full.PQPops)
	}
}

// TestTraceCanceledSolveKeepsTrace: a Solve canceled mid-pass returns the
// context's error and leaves Solver.Trace as it was.
func TestTraceCanceledSolveKeepsTrace(t *testing.T) {
	inst := traceInstance(12, 0, 80)
	seed := NewTrace(inst)
	gomaxprocs.Each(t, func(workers int) {
		ctx := &pollCancelCtx{Context: context.Background()}
		ctx.live.Store(20)
		s := Solver{Trace: seed}
		if _, err := s.Solve(ctx, inst); err == nil {
			t.Fatalf("GOMAXPROCS=%d: canceled solve succeeded", workers)
		}
		if s.Trace != seed {
			t.Fatalf("GOMAXPROCS=%d: canceled solve replaced the trace", workers)
		}
	})
}

// pollCancelCtx reports no error for its first live Err calls and
// context.Canceled after them.
type pollCancelCtx struct {
	context.Context
	live atomic.Int64
}

func (c *pollCancelCtx) Err() error {
	if c.live.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}
