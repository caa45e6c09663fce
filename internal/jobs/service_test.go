package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestService builds a Service over runner with test-friendly defaults
// (fast backoff, fsync off) and tears it down with the test. Overrides go
// through mutate.
func newTestService(t *testing.T, runner Runner, mutate func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		Workers:     2,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		Seed:        1,
		Store:       StoreOptions{NoSync: true},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, _, err := NewService(cfg, runner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Service, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last Job
	for time.Now().Before(deadline) {
		j, _, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		last = j
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (stuck at %s, attempts %d, err %q)",
		id, want, last.State, last.Attempts, last.Error)
	return Job{}
}

func TestServiceRunsJobToDone(t *testing.T) {
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		return []byte(`{"echo":"` + j.Params + `"}`), nil
	}, nil)
	j, err := s.Submit("", "algo=celf", []byte("{}"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" {
		t.Fatalf("submitted job %+v", j)
	}
	done := waitState(t, s, j.ID, StateDone)
	if string(done.Result) != `{"echo":"algo=celf"}` {
		t.Errorf("result %q", done.Result)
	}
	if done.Attempts != 1 {
		t.Errorf("attempts %d, want 1", done.Attempts)
	}
	if done.FinishedAt.Before(done.StartedAt) || done.StartedAt.Before(done.SubmittedAt) {
		t.Errorf("timing order broken: %+v", done)
	}
	reg := s.Metrics()
	if got := reg.Counter("phocus_jobs_enqueued_total").Value(); got != 1 {
		t.Errorf("enqueued counter %d", got)
	}
	if got := reg.Counter("phocus_jobs_completed_total").Value(); got != 1 {
		t.Errorf("completed counter %d", got)
	}
}

// TestServiceRetriesTransient: MarkTransient failures retry with backoff
// until success; the attempt count and retry counter record the journey.
func TestServiceRetriesTransient(t *testing.T) {
	var calls atomic.Int64
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		if calls.Add(1) < 3 {
			return nil, MarkTransient(errors.New("flaky backend"))
		}
		return []byte("ok"), nil
	}, nil)
	j, err := s.Submit("", "", []byte("x"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, j.ID, StateDone)
	if done.Attempts != 3 {
		t.Errorf("attempts %d, want 3", done.Attempts)
	}
	if got := s.Metrics().Counter("phocus_jobs_retried_total").Value(); got != 2 {
		t.Errorf("retried counter %d, want 2", got)
	}
}

// TestServiceTransientExhaustion: retries stop at MaxAttempts and the job
// fails with the last error preserved.
func TestServiceTransientExhaustion(t *testing.T) {
	var calls atomic.Int64
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		calls.Add(1)
		return nil, MarkTransient(errors.New("still down"))
	}, func(c *Config) { c.MaxAttempts = 2 })
	j, _ := s.Submit("", "", []byte("x"), time.Time{})
	failed := waitState(t, s, j.ID, StateFailed)
	if failed.Attempts != 2 || calls.Load() != 2 {
		t.Errorf("attempts %d / calls %d, want 2/2", failed.Attempts, calls.Load())
	}
	if !strings.Contains(failed.Error, "still down") {
		t.Errorf("error %q lost the chain", failed.Error)
	}
	if got := s.Metrics().Counter("phocus_jobs_failed_total").Value(); got != 1 {
		t.Errorf("failed counter %d", got)
	}
}

// TestServicePermanentFailureNoRetry: an unmarked error fails immediately.
func TestServicePermanentFailureNoRetry(t *testing.T) {
	var calls atomic.Int64
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		calls.Add(1)
		return nil, errors.New("bad instance")
	}, nil)
	j, _ := s.Submit("", "", []byte("x"), time.Time{})
	failed := waitState(t, s, j.ID, StateFailed)
	if failed.Attempts != 1 || calls.Load() != 1 {
		t.Errorf("permanent failure retried: attempts %d calls %d", failed.Attempts, calls.Load())
	}
}

// blockingRunner returns a runner that signals each start on started and
// blocks until its context is canceled (returning the context error).
func blockingRunner(started chan<- string) Runner {
	return func(ctx context.Context, j Job) ([]byte, error) {
		started <- j.ID
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

// TestServiceCancelQueued: DELETE on a still-queued job cancels it without
// it ever running.
func TestServiceCancelQueued(t *testing.T) {
	started := make(chan string, 4)
	s := newTestService(t, blockingRunner(started), func(c *Config) { c.Workers = 1 })
	blocker, _ := s.Submit("", "", []byte("x"), time.Time{})
	<-started // the single worker is now occupied
	victim, err := s.Submit("", "", []byte("y"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Cancel(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.Error != ErrCanceled.Error() {
		t.Fatalf("canceled job %+v", got)
	}
	// Cancel of a terminal job is a typed conflict.
	if _, err := s.Cancel(victim.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel: %v, want ErrTerminal", err)
	}
	if _, err := s.Cancel("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
	// Unblock the worker; the canceled job must never start.
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateCanceled)
	select {
	case id := <-started:
		t.Fatalf("job %s ran after cancellation", id)
	case <-time.After(50 * time.Millisecond):
	}
	if got := s.Metrics().Counter("phocus_jobs_canceled_total").Value(); got != 2 {
		t.Errorf("canceled counter %d, want 2", got)
	}
}

// TestServiceCancelRunning: DELETE on a running job propagates through the
// job context and lands in state canceled.
func TestServiceCancelRunning(t *testing.T) {
	started := make(chan string, 1)
	s := newTestService(t, blockingRunner(started), nil)
	j, _ := s.Submit("", "", []byte("x"), time.Time{})
	<-started
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, j.ID, StateCanceled)
	if done.Error != ErrCanceled.Error() {
		t.Errorf("cancel cause %q", done.Error)
	}
}

// TestServiceJobTimeout: the per-job deadline spans the whole execution
// and expires into state failed with the deadline error.
func TestServiceJobTimeout(t *testing.T) {
	started := make(chan string, 1)
	s := newTestService(t, blockingRunner(started), func(c *Config) {
		c.JobTimeout = 20 * time.Millisecond
	})
	j, _ := s.Submit("", "", []byte("x"), time.Time{})
	<-started
	failed := waitState(t, s, j.ID, StateFailed)
	if !strings.Contains(failed.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("timeout error %q", failed.Error)
	}
}

// TestServiceQueuePosition: queued jobs report their 0-based position and
// running/terminal jobs report -1.
func TestServiceQueuePosition(t *testing.T) {
	started := make(chan string, 1)
	s := newTestService(t, blockingRunner(started), func(c *Config) { c.Workers = 1 })
	blocker, _ := s.Submit("", "", []byte("x"), time.Time{})
	<-started
	a, _ := s.Submit("", "", []byte("a"), time.Time{})
	b, _ := s.Submit("", "", []byte("b"), time.Time{})
	if _, pos, _ := s.Get(a.ID); pos != 0 {
		t.Errorf("position(a) = %d, want 0", pos)
	}
	if _, pos, _ := s.Get(b.ID); pos != 1 {
		t.Errorf("position(b) = %d, want 1", pos)
	}
	if _, pos, _ := s.Get(blocker.ID); pos != -1 {
		t.Errorf("position(running) = %d, want -1", pos)
	}
	s.Cancel(blocker.ID)
	s.Cancel(a.ID)
	s.Cancel(b.ID)
}

// TestServiceBurstAdmission is the acceptance scenario: 100 jobs against a
// 2-worker scheduler with queue depth 32 — every admitted job reaches a
// terminal state, the rest are rejected with ErrQueueFull, and nothing is
// lost or run twice.
func TestServiceBurstAdmission(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		<-gate
		runs.Add(1)
		return []byte("ok"), nil
	}, func(c *Config) {
		c.Workers = 2
		c.QueueDepth = 32
	})

	var admitted []string
	rejected := 0
	for i := 0; i < 100; i++ {
		j, err := s.Submit("", "", []byte(fmt.Sprintf(`{"n":%d}`, i)), time.Time{})
		switch {
		case err == nil:
			admitted = append(admitted, j.ID)
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if len(admitted)+rejected != 100 {
		t.Fatalf("admitted %d + rejected %d != 100", len(admitted), rejected)
	}
	if rejected == 0 {
		t.Fatal("burst never hit admission control")
	}
	// With 2 gated workers and depth 32 at most 34 jobs fit at once.
	if len(admitted) > 34 {
		t.Fatalf("admitted %d jobs past a depth-32 queue with 2 workers", len(admitted))
	}
	close(gate)
	for _, id := range admitted {
		waitState(t, s, id, StateDone)
	}
	if got := runs.Load(); got != int64(len(admitted)) {
		t.Fatalf("runner ran %d times for %d admitted jobs", got, len(admitted))
	}
	// A worker publishes a job's done state before it counts the job as
	// completed; Close returns once every worker has finished.
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg := s.Metrics()
	if got := reg.Counter("phocus_jobs_rejected_total").Value(); got != int64(rejected) {
		t.Errorf("rejected counter %d, want %d", got, rejected)
	}
	if got := reg.Counter("phocus_jobs_completed_total").Value(); got != int64(len(admitted)) {
		t.Errorf("completed counter %d, want %d", got, len(admitted))
	}
}

// TestServiceCrashRecovery is the durability acceptance scenario: SIGKILL
// (simulated by Terminate) mid-burst loses zero admitted jobs — queued jobs
// replay, the running job re-queues exactly once, and a restarted service
// runs everything to done.
func TestServiceCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	started := make(chan string, 8)
	s, _, err := NewService(Config{
		Dir: dir, Workers: 1, Seed: 1, Store: StoreOptions{NoSync: true},
	}, blockingRunner(started))
	if err != nil {
		t.Fatal(err)
	}

	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit("", "", []byte(fmt.Sprintf(`{"n":%d}`, i)), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	<-started // one job is mid-run, four are queued
	s.Terminate()

	s2, replay, err := NewService(Config{
		Dir: dir, Workers: 2, Seed: 1, Store: StoreOptions{NoSync: true},
	}, func(ctx context.Context, j Job) ([]byte, error) {
		return []byte(`"recovered"`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Close(ctx)
	}()
	if replay.Jobs != 5 || replay.Queued != 5 || replay.Requeued != 1 {
		t.Fatalf("replay %+v, want 5 jobs / 5 queued / 1 requeued", replay)
	}
	for _, id := range ids {
		done := waitState(t, s2, id, StateDone)
		if string(done.Result) != `"recovered"` {
			t.Errorf("job %s result %q", id, done.Result)
		}
	}
	if got := s2.Metrics().Counter("phocus_jobs_requeued_total").Value(); got != 1 {
		t.Errorf("requeued counter %d, want 1", got)
	}
}

// TestServiceDrainCheckpoint: a job still running when the drain deadline
// expires is checkpointed back to queued — durably — and a restart resumes
// it instead of losing it.
func TestServiceDrainCheckpoint(t *testing.T) {
	dir := t.TempDir()
	started := make(chan string, 1)
	s, _, err := NewService(Config{
		Dir: dir, Workers: 1, Seed: 1, Store: StoreOptions{NoSync: true},
	}, blockingRunner(started))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit("", "", []byte("x"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
	} else {
		t.Error("service still ready after Close")
	}

	s2, replay, err := NewService(Config{
		Dir: dir, Workers: 1, Seed: 1, Store: StoreOptions{NoSync: true},
	}, func(ctx context.Context, j Job) ([]byte, error) {
		return []byte("done after restart"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer ccancel()
		s2.Close(cctx)
	}()
	if replay.Queued != 1 || replay.Requeued != 0 {
		t.Fatalf("replay %+v, want 1 queued via graceful checkpoint (not crash requeue)", replay)
	}
	done := waitState(t, s2, j.ID, StateDone)
	if string(done.Result) != "done after restart" {
		t.Errorf("result %q", done.Result)
	}
}

// TestServiceSubmitWhileDraining: intake stops the moment drain begins.
func TestServiceSubmitWhileDraining(t *testing.T) {
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		return nil, nil
	}, nil)
	s.BeginDrain()
	if s.Ready() {
		t.Error("ready while draining")
	}
	if _, err := s.Submit("", "", []byte("x"), time.Time{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}

func TestServiceList(t *testing.T) {
	gate := make(chan struct{})
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		<-gate
		return nil, nil
	}, func(c *Config) { c.Workers = 1 })
	defer close(gate)
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit("", "", []byte("x"), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	page, total := s.List(1, 2)
	if total != 5 || len(page) != 2 {
		t.Fatalf("list(1,2) = %d jobs of %d", len(page), total)
	}
	if page[0].ID != ids[1] || page[1].ID != ids[2] {
		t.Errorf("page order %s,%s want %s,%s", page[0].ID, page[1].ID, ids[1], ids[2])
	}
	if page[0].Body != nil {
		t.Error("listing leaked the payload")
	}
	if _, total := s.List(99, 10); total != 5 {
		t.Errorf("offset past the end: total %d", total)
	}
}

// TestBackoffDeterministic: the jittered schedule is reproducible for a
// seed and every delay stays inside [0.5, 1.5)× the capped exponential.
func TestBackoffDeterministic(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		s, _, err := NewService(Config{
			Workers: 1, Seed: seed,
			BackoffBase: 100 * time.Millisecond, BackoffCap: 5 * time.Second,
		}, func(ctx context.Context, j Job) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(context.Background())
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = s.backoff(i + 1)
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	base, cap := 100*time.Millisecond, 5*time.Second
	for i, d := range a {
		ideal := base << i
		if ideal > cap {
			ideal = cap
		}
		lo, hi := ideal/2, ideal+ideal/2
		if d < lo || d >= hi {
			t.Errorf("attempt %d delay %v outside [%v, %v)", i+1, d, lo, hi)
		}
	}
	c := mk(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}
