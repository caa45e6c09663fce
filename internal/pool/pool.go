// Package pool provides the fan-out primitives behind the solve pipeline's
// parallel stages. Every stage sizes itself from runtime.GOMAXPROCS(0); no
// stage takes a worker count. A Run's S0 gains (Evaluator.GainsInto), the
// per-subset sparsification (exact or LSH), the kernel compile
// (par.CompileKernel) and τ-threshold (par.Kernel.Threshold) and EC dataset
// generation fan their work out through ForEach or ForEachChunk over
// GOMAXPROCS workers, one level deep, and each degrades to the plain
// sequential loop at GOMAXPROCS 1. The split wire decode passes
// its split count instead, one goroutine per split. CELF's lazy-greedy
// passes do not use it: the solver runs its UC and CB passes on one
// goroutine each, and each pass recomputes its stale entries one at a
// time. Sem is the counting semaphore that bounds concurrent solves.
//
// The contract every caller relies on: ForEach(n, w, fn) calls fn exactly
// once for every index in [0, n), and the set of calls (not their order) is
// independent of w. Callers therefore write results into per-index slots and
// reduce sequentially afterwards, which is what keeps parallel output
// byte-identical to the sequential path.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker count: any value ≤ 0 means "one worker per
// available CPU" (runtime.GOMAXPROCS(0)); positive values are returned
// unchanged.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEachChunk is the chunked variant of ForEach: it calls fn over disjoint
// half-open ranges [lo, hi) that together cover [0, n) exactly once, handing
// out whole chunks through the shared counter instead of single indices.
// Hot batch loops (Evaluator.GainsInto) use it to amortize the per-index
// closure dispatch and atomic increment of ForEach over an entire chunk of
// work.
//
// The per-index contract is ForEach's: every index in [0, n) is processed
// exactly once and the set of indices is independent of workers — only the
// partition into ranges varies — so callers writing per-index results stay
// byte-identical for every worker count. With an effective worker count of 1
// it degrades to a single fn(0, n) call.
func ForEachChunk(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	// Several chunks per worker so a skewed chunk doesn't serialize the
	// batch, while each handout still covers many indices.
	chunk := (n + 4*workers - 1) / (4 * workers)
	if chunk < 1 {
		chunk = 1
	}
	chunks := (n + chunk - 1) / chunk
	ForEach(chunks, workers, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// ForEach runs fn(i) for every i in [0, n), fanning the calls out over up to
// workers goroutines (workers is first passed through Resolve; at most n
// goroutines are started). With an effective worker count of 1 it degrades
// to a plain loop with zero goroutine overhead.
//
// Indices are handed out through a shared atomic counter, so call order
// across workers is nondeterministic — fn must not depend on ordering and
// must confine its writes to per-index state. A panic in any fn is re-raised
// on the calling goroutine after all workers have drained, preserving the
// synchronous path's panic semantics.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
					// Park the counter past n so the remaining workers stop
					// picking up work after a panic.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}
