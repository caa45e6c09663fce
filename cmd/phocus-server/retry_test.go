package main

import (
	"io"
	"log/slog"
	"math"
	"testing"

	"phocus/internal/obs"
)

// TestRetryAfterSecondsClamped pins the Retry-After estimate's guards: no
// combination of histogram state (empty, poisoned with NaN/Inf, huge means)
// and queue configuration may produce a zero, negative, or garbage header —
// the old code converted Inf/NaN through int(), which is platform-defined,
// and emitted it verbatim.
func TestRetryAfterSecondsClamped(t *testing.T) {
	check := func(t *testing.T, s *server, label string) {
		t.Helper()
		sec := s.retryAfterSeconds()
		if sec < 1 || sec > 60 {
			t.Errorf("%s: Retry-After %d, want within [1, 60]", label, sec)
		}
	}

	s, _ := newTestServer(t, nil)
	check(t, s, "empty histogram")

	h := s.reg.Histogram("phocus_jobs_run_seconds", obs.DefBuckets)
	h.Observe(0.25)
	check(t, s, "healthy mean")

	h.Observe(math.Inf(1)) // a poisoned sample makes Sum() infinite
	check(t, s, "infinite sum")

	h.Observe(math.NaN()) // and NaN propagates through any mean
	check(t, s, "NaN sum")

	s2, _ := newTestServer(t, nil)
	s2.reg.Histogram("phocus_jobs_run_seconds", obs.DefBuckets).Observe(1e12)
	check(t, s2, "huge mean clamps to 60")
	if sec := s2.retryAfterSeconds(); sec != 60 {
		t.Errorf("huge mean: Retry-After %d, want the 60s ceiling", sec)
	}

	// Unbounded queue (depth cap 0) must not zero the estimate.
	s3 := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{
		MaxBody: 1 << 20, JobWorkers: 2, CacheEntries: 4, CacheBytes: 1 << 20,
	})
	check(t, s3, "unbounded queue")
}
