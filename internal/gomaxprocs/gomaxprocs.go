// Package gomaxprocs runs test code at chosen GOMAXPROCS values. Every
// parallel stage of the engine sizes its fan-out from runtime.GOMAXPROCS(0)
// (CELF runs its UC and CB passes one after the other exactly at
// GOMAXPROCS 1), so GOMAXPROCS is what a test varies to hold the
// sequential and concurrent schedules to each other. It imports nothing
// of the engine, so package par's own tests can use it.
package gomaxprocs

import (
	"runtime"
	"testing"
)

// Levels are the GOMAXPROCS values Each runs at: 1 takes every sequential
// path, 2 is the smallest concurrent schedule, and 8 oversubscribes a small
// machine so that goroutines interleave.
var Levels = []int{1, 2, 8}

// Set sets GOMAXPROCS to n for the rest of t and restores the previous
// value in t.Cleanup.
func Set(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// Each calls fn at each of Levels in turn, with GOMAXPROCS set to it, and
// then restores the previous value (also in t.Cleanup, should fn stop the
// test).
func Each(t testing.TB, fn func(n int)) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, n := range Levels {
		runtime.GOMAXPROCS(n)
		fn(n)
	}
	runtime.GOMAXPROCS(prev)
}
