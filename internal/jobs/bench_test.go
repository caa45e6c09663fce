package jobs

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"
)

// benchThroughput pushes b.N jobs through a scheduler with a trivial
// runner and reports jobs/sec plus the p50/p95 queue wait — the numbers CI
// publishes as BENCH_jobs.json. The runner is free, so the measurement
// isolates the jobs machinery itself (queue, WAL, scheduler handoff).
func benchThroughput(b *testing.B, dir string) {
	s, _, err := NewService(Config{
		Dir:     dir,
		Workers: 4,
		Store:   StoreOptions{NoSync: true, MaxTerminal: -1},
	}, func(ctx context.Context, j Job) ([]byte, error) {
		return []byte("{}"), nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	payload := []byte(`{"bench":true}`)

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit("", fmt.Sprintf("n=%d", i), payload, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	done := s.Metrics().Counter("phocus_jobs_completed_total")
	for done.Value() < int64(b.N) {
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()

	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
	jobs, _ := s.List(0, b.N)
	waits := make([]float64, 0, len(jobs))
	for i := range jobs {
		waits = append(waits, jobs[i].Wait().Seconds()*1000)
	}
	sort.Float64s(waits)
	if len(waits) > 0 {
		b.ReportMetric(waits[len(waits)/2], "wait-p50-ms")
		b.ReportMetric(waits[len(waits)*95/100], "wait-p95-ms")
	}
}

// BenchmarkJobsThroughput measures the memory-only scheduler.
func BenchmarkJobsThroughput(b *testing.B) {
	benchThroughput(b, "")
}

// BenchmarkJobsThroughputWAL measures the durable path: every submit and
// transition appends to the write-ahead log (fsync off, as a CI disk's
// sync latency would swamp the comparison).
func BenchmarkJobsThroughputWAL(b *testing.B) {
	benchThroughput(b, b.TempDir())
}
