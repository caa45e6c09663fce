package solvertest

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"phocus/internal/par"
)

// CountdownContext is a context whose Err() flips to context.Canceled after
// it has been polled n times — a deterministic way to cancel a solver
// mid-run without goroutines or timing. Solvers cancel cooperatively by
// polling Err() at bounded intervals, so the poll count doubles as a measure
// of how promptly they stop.
type CountdownContext struct {
	context.Context
	mu    sync.Mutex
	calls int
	n     int
}

// NewCountdownContext returns a context that reports context.Canceled from
// its n+1-th Err() call onward.
func NewCountdownContext(n int) *CountdownContext {
	return &CountdownContext{Context: context.Background(), n: n}
}

// Err implements context.Context.
func (c *CountdownContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// Calls returns how many times Err has been polled.
func (c *CountdownContext) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// CancelContract is the conformance suite for cooperative cancellation:
//
//  1. a context canceled before the call fails immediately with
//     context.Canceled;
//  2. a context canceled mid-solve (at a poll the full solve reaches) stops
//     the solver within a few polls of the trigger (it must not drain its
//     remaining work first);
//  3. a live context that is never canceled leaves the result identical to
//     context.Background().
func CancelContract(t *testing.T, mk Factory) {
	t.Helper()
	rng := rand.New(rand.NewSource(20_240_602))
	inst := par.Random(rng, par.RandomConfig{Photos: 24, Subsets: 10, BudgetFrac: 0.3})

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := mk().Solve(ctx, inst); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("mid-solve", func(t *testing.T) {
		// A full solve's poll count bounds where a cancel can land mid-solve:
		// a countdown at or past it lets the solve finish first (RAND-A, for
		// one, is done after a handful of selections).
		full := NewCountdownContext(math.MaxInt)
		if _, err := mk().Solve(full, inst); err != nil {
			t.Fatal(err)
		}
		polls := full.Calls()
		if polls < 2 {
			t.Fatalf("a full solve polled ctx %d times, want at least 2 so a cancel can land mid-solve", polls)
		}
		for _, n := range []int{1, 3, 8} {
			if n >= polls {
				break
			}
			ctx := NewCountdownContext(n)
			if _, err := mk().Solve(ctx, inst); !errors.Is(err, context.Canceled) {
				t.Fatalf("countdown %d: err = %v, want context.Canceled", n, err)
			}
			// A prompt stop polls at most a few more times on the way out
			// (concurrent sub-procedures may each observe the cancellation
			// once); a large overshoot means work continued after cancel.
			if calls := ctx.Calls(); calls > n+4 {
				t.Fatalf("countdown %d: ctx polled %d times — solver kept working after cancel", n, calls)
			}
		}
	})

	t.Run("inert-context", func(t *testing.T) {
		small := par.Random(rng, par.RandomConfig{Photos: 14, Subsets: 7, BudgetFrac: 0.3})
		plain, err := mk().Solve(context.Background(), small)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		live, err := mk().Solve(ctx, small)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plain.Score-live.Score) > 1e-12 || len(plain.Photos) != len(live.Photos) {
			t.Fatalf("a live context diverged from context.Background(): %.6f/%d vs %.6f/%d",
				live.Score, len(live.Photos), plain.Score, len(plain.Photos))
		}
		for i := range plain.Photos {
			if plain.Photos[i] != live.Photos[i] {
				t.Fatalf("selection diverged: %v vs %v", live.Photos, plain.Photos)
			}
		}
	})
}
