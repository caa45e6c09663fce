package phocus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
)

// traceLadder is the budget ladder of the trace gates, as fractions of the
// archive's total cost: the engine_sweep rungs plus one above them.
var traceLadder = []float64{0.05, 0.10, 0.15, 0.30, 0.50}

// runBits is a Run's answer with every float as raw bits.
type runBits struct {
	photos             string
	score, cost, bound uint64
}

func bitsOf(r *Result) runBits {
	return runBits{
		photos: fmt.Sprint(r.Solution.Photos),
		score:  math.Float64bits(r.Solution.Score),
		cost:   math.Float64bits(r.Solution.Cost),
		bound:  math.Float64bits(r.OnlineBound),
	}
}

// firstRuns returns, per rung of traceLadder, the answer of the first Run
// of a Prepared that holds no trace: ref's trace is dropped before each Run,
// which puts it in the state of a fresh Prepare.
func firstRuns(t *testing.T, ref *Prepared, total float64) []runBits {
	t.Helper()
	want := make([]runBits, len(traceLadder))
	for i, f := range traceLadder {
		ref.trace = nil
		res, err := ref.Run(context.Background(), RunOptions{Budget: f * total})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bitsOf(res)
	}
	return want
}

// checkTraceLadders runs traceLadder over live in ascending, descending and
// shuffled order, each order twice and each order on a live Prepared with
// no trace, cycling GOMAXPROCS through 1, 2 and 8 from Run to Run so that
// traces recorded at one GOMAXPROCS are continued at another. Every answer must
// match want bit for bit, and every order must continue a trace at least
// once.
func checkTraceLadders(t *testing.T, label string, live *Prepared, total float64, want []runBits) {
	t.Helper()
	shuffled := rand.New(rand.NewSource(int64(len(label)))).Perm(len(traceLadder))
	orders := map[string][]int{
		"ascending":  {0, 1, 2, 3, 4},
		"descending": {4, 3, 2, 1, 0},
		"shuffled":   shuffled,
	}
	levels := gomaxprocs.Levels
	for _, name := range []string{"ascending", "descending", "shuffled"} {
		live.trace = nil
		continued := 0
		k := 0
		for cycle := 0; cycle < 2; cycle++ {
			for _, rung := range orders[name] {
				var st celf.Stats
				opts := RunOptions{
					Budget:      traceLadder[rung] * total,
					OnCELFStats: func(s celf.Stats) { st = s },
				}
				procs := levels[k%len(levels)]
				gomaxprocs.Set(t, procs)
				k++
				res, err := live.Run(context.Background(), opts)
				if err != nil {
					t.Fatalf("%s %s: %v", label, name, err)
				}
				if got := bitsOf(res); got != want[rung] {
					t.Fatalf("%s %s cycle %d rung %g GOMAXPROCS=%d (trace prefix %d): got %+v, want %+v",
						label, name, cycle, traceLadder[rung], procs, st.TracePrefix, got, want[rung])
				}
				if st.TracePrefix > 0 {
					continued++
				}
			}
		}
		if continued == 0 {
			t.Fatalf("%s %s: no Run continued a trace", label, name)
		}
	}
}

// TestTraceContinueLadders is the engine-level gate of trace continuation:
// on P-1K and P-100K ×0.05, at τ 0 and 0.4, every rung of every ladder order
// gives the first Run's selections, cost, score and online-bound bits,
// whichever GOMAXPROCS recorded the trace it continues.
func TestTraceContinueLadders(t *testing.T) {
	if testing.Short() {
		t.Skip("generates public-shape datasets")
	}
	ctx := context.Background()
	specs := []dataset.PublicSpec{dataset.PublicSpecs(1)[0], dataset.PublicSpecs(0.05)[4]}
	if raceEnabled {
		// The instrumented P-100K cells take a minute; the race lane keeps
		// P-1K, and the plain test lane runs both.
		specs = specs[:1]
	}
	for _, spec := range specs {
		spec.RetainFrac = 0.02
		ds, err := dataset.GeneratePublic(spec)
		if err != nil {
			t.Fatal(err)
		}
		total := ds.Instance.TotalCost()
		for _, tau := range []float64{0, 0.4} {
			label := fmt.Sprintf("%s tau=%g", spec.Name, tau)
			opts := PrepareOptions{Tau: tau, InstanceDigest: label}
			ref, err := Prepare(ctx, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			live, err := Prepare(ctx, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkTraceLadders(t, label, live, total, firstRuns(t, ref, total))
		}
	}
}

// TestTraceContinueAfterDeltaChain: on P-1K at τ 0 and 0.4, after a
// 40-batch delta chain of 1% churn, with a Run after every batch so each
// delta drops a live trace, and a forced compaction, the ladders match the
// first Runs of a cold Prepare of the merged instance.
func TestTraceContinueAfterDeltaChain(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a public-shape dataset")
	}
	ctx := context.Background()
	spec := dataset.PublicSpecs(1)[0]
	spec.RetainFrac = 0.02
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0, 0.4} {
		label := fmt.Sprintf("%s tau=%g after 40 deltas", spec.Name, tau)
		opts := PrepareOptions{Tau: tau, InstanceDigest: label}
		live, err := Prepare(ctx, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(40))
		churn := ds.Instance.NumPhotos() / 200
		merged := ds.Instance
		var removed []bool
		for batch := 0; batch < 40; batch++ {
			d := randomChurn(rng, live.base, removed, churn, churn, batch%10 == 0)
			if _, err := live.ApplyDelta(ctx, d); err != nil {
				t.Fatalf("%s batch %d: %v", label, batch, err)
			}
			if merged, removed, err = MergeDelta(merged, removed, d); err != nil {
				t.Fatalf("%s batch %d: MergeDelta: %v", label, batch, err)
			}
			if _, err := live.Run(ctx, RunOptions{Budget: traceLadder[batch%len(traceLadder)] * merged.TotalCost()}); err != nil {
				t.Fatalf("%s batch %d: Run: %v", label, batch, err)
			}
		}
		if err := compactNow(live); err != nil {
			t.Fatal(err)
		}
		cold, err := Prepare(ctx, &dataset.Dataset{Instance: merged}, opts)
		if err != nil {
			t.Fatal(err)
		}
		total := merged.TotalCost()
		checkTraceLadders(t, label, live, total, firstRuns(t, cold, total))
	}
}

// TestTraceConcurrentRunsRaceDelta: Runs at mixed budgets on several
// goroutines race a chain of ApplyDelta calls. Every Run's answer must be
// the first Run's answer at its budget on one of the layouts the chain goes
// through: a trace never outlives its layout, and concurrent installs never
// leave a trace that does not cover what it claims.
func TestTraceConcurrentRunsRaceDelta(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	inst := par.Random(rng, par.RandomConfig{Photos: 120, Subsets: 30, BudgetFrac: 0.4, RetainFrac: 0.05})
	opts := PrepareOptions{Tau: 0.3, InstanceDigest: "trace-race"}
	live, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, opts)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []float64{0.1, 0.2, 0.3, 0.45}
	for i := range budgets {
		budgets[i] *= inst.TotalCost()
	}

	// Plan the chain and every layout's first-Run answers up front.
	const deltas = 4
	var chain []*Delta
	want := make([]map[runBits]bool, len(budgets))
	for i := range want {
		want[i] = map[runBits]bool{}
	}
	plan, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for layout := 0; ; layout++ {
		for i, b := range budgets {
			plan.trace = nil
			res, err := plan.Run(ctx, RunOptions{Budget: b})
			if err != nil {
				t.Fatal(err)
			}
			want[i][bitsOf(res)] = true
		}
		if layout == deltas {
			break
		}
		d := randomChurn(rng, plan.base, plan.removed, 4, 4, false)
		if _, err := plan.ApplyDelta(ctx, d); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, d)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 24; k++ {
				i := (g + k) % len(budgets)
				res, err := live.Run(ctx, RunOptions{Budget: budgets[i]})
				if err != nil {
					errs <- err
					return
				}
				if !want[i][bitsOf(res)] {
					errs <- fmt.Errorf("goroutine %d run %d: budget %g answered %+v, no layout's first Run", g, k, budgets[i], bitsOf(res))
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range chain {
			if _, err := live.ApplyDelta(ctx, d); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTraceCanceledRunInstallsNothing: a Run canceled mid-pass above the
// traced budget leaves the installed trace in place, and a first Run
// canceled mid-pass leaves a trace that covers no budget; the next live Runs
// still give the first Run's answers.
func TestTraceCanceledRunInstallsNothing(t *testing.T) {
	ds := sweepDataset(t, 41)
	total := ds.Instance.TotalCost()
	p, err := Prepare(context.Background(), ds, PrepareOptions{Tau: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 0.3*total, 0.6*total
	gomaxprocs.Each(t, func(workers int) {
		p.trace = nil
		// Two Err calls let the Run through its entry and S0 checks; the
		// cancellation lands in the first CELF pass.
		ctx := newPollCancelCtx(3)
		if _, err := p.Run(ctx, RunOptions{Budget: lo}); !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: Run err = %v, want context.Canceled", workers, err)
		}
		if p.trace == nil || p.trace.Covers(0) {
			t.Fatalf("GOMAXPROCS=%d: canceled first Run installed a recorded trace", workers)
		}
		if _, err := p.Run(context.Background(), RunOptions{Budget: lo}); err != nil {
			t.Fatal(err)
		}
		installed := p.trace
		ctx = newPollCancelCtx(3)
		if _, err := p.Run(ctx, RunOptions{Budget: hi}); !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: Run err = %v, want context.Canceled", workers, err)
		}
		if p.trace != installed || p.trace.Covers(hi) {
			t.Fatalf("GOMAXPROCS=%d: canceled Run above the traced budget replaced the trace", workers)
		}
		got, err := p.Run(context.Background(), RunOptions{Budget: hi})
		if err != nil {
			t.Fatal(err)
		}
		want, err := prepareRun(ds, PrepareOptions{Tau: 0.4}, RunOptions{Budget: hi})
		if err != nil {
			t.Fatal(err)
		}
		if bitsOf(got) != bitsOf(want) {
			t.Fatalf("GOMAXPROCS=%d: Run after the canceled one %+v, first Run %+v", workers, bitsOf(got), bitsOf(want))
		}
	})
}

// pollCancelCtx reports no error for its first live Err calls, from any
// goroutine, and context.Canceled after them.
type pollCancelCtx struct {
	context.Context
	live atomic.Int64
}

func newPollCancelCtx(live int64) *pollCancelCtx {
	c := &pollCancelCtx{Context: context.Background()}
	c.live.Store(live)
	return c
}

func (c *pollCancelCtx) Err() error {
	if c.live.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}
