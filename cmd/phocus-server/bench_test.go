package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"phocus/internal/dataset"
	"phocus/internal/fleet"
	"phocus/internal/obs"
	"phocus/internal/par"
)

// p1kArchive is the P-1K public dataset (1000 photos, S0 = 2% of them) with
// its wire body (~3 MB), generated once per test binary.
var p1kArchive = sync.OnceValues(func() (*dataset.Dataset, []byte) {
	spec := dataset.PublicSpecs(1)[0]
	spec.RetainFrac = 0.02
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := par.WriteJSON(&buf, ds.Instance); err != nil {
		panic(err)
	}
	return ds, buf.Bytes()
})

// BenchmarkSolveHandler drives handleSolve in process over the P-1K body at
// τ = 0.4 and a budget of 10% of the archive's cost. hit sends the body the
// cache already holds under one tenant; miss sends it under a new tenant
// every iteration, so each op is a cold Prepare past a 4-entry cache. Next
// to ns/op, a mean, each reports the p50 and p90 of its per-op times: the
// mean of hit drifts by milliseconds between runs of one build, and a gate
// on the tail needs the percentiles.
func BenchmarkSolveHandler(b *testing.B) {
	ds, body := p1kArchive()
	query := "/solve?tau=0.4&budget=" + strconv.FormatFloat(0.1*ds.Instance.TotalCost(), 'f', -1, 64)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := mustServer(b, logger, serverConfig{
		MaxBody: 256 << 20, Workers: 1, ExactMaxNodes: 50_000_000,
		CacheEntries: 4, CacheBytes: 1 << 30,
	})
	solve := func(b *testing.B, tenant string) {
		req := httptest.NewRequest(http.MethodPost, query, bytes.NewReader(body))
		req.Header.Set(fleet.TenantHeader, tenant)
		req = req.WithContext(obs.WithLogger(req.Context(), logger))
		rec := httptest.NewRecorder()
		s.handleSolve(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	// timed runs op b.N times and reports the percentiles of its times. The
	// time slice is allocated before the timer starts.
	timed := func(b *testing.B, op func()) {
		lat := make([]time.Duration, b.N)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := range lat {
			t0 := time.Now()
			op()
			lat[i] = time.Since(t0)
		}
		b.StopTimer()
		slices.Sort(lat)
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns/op")
		b.ReportMetric(float64(lat[len(lat)*9/10].Nanoseconds()), "p90-ns/op")
	}
	b.Run("hit", func(b *testing.B) {
		solve(b, "hit")
		timed(b, func() { solve(b, "hit") })
	})
	tenants := 0 // across the rounds the benchmark runs, so no tenant repeats
	b.Run("miss", func(b *testing.B) {
		timed(b, func() {
			tenants++
			solve(b, fmt.Sprintf("miss-%d", tenants))
		})
	})
}
