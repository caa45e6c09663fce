package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phocus/internal/obs"
)

// newTestService builds a Service over runner with test-friendly defaults
// (fsync off) and tears it down with the test. Overrides go through mutate.
func newTestService(t *testing.T, runner Runner, mutate func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		Workers: 2,
		Store:   StoreOptions{NoSync: true},
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

// transientErr is an error that calls itself transient, the way a retry
// policy would ask.
type transientErr struct{}

func (transientErr) Error() string   { return "flaky backend" }
func (transientErr) Transient() bool { return true }

// spanNames returns the names of the spans in id's trace, in order.
func spanNames(t *testing.T, trace *obs.TraceStore, id string) []string {
	t.Helper()
	tr, ok := trace.Get(id)
	if !ok {
		t.Fatalf("no trace for job %s", id)
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	return names
}

// TestServiceRetriesTransient: the Service has no retry policy. An error
// that calls itself transient fails the job on its only start, its message
// kept, and the job's trace holds one run span and no retry span.
func TestServiceRetriesTransient(t *testing.T) {
	trace := obs.NewTraceStore(0)
	var calls atomic.Int64
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		calls.Add(1)
		return nil, fmt.Errorf("solve: %w", transientErr{})
	}, func(c *Config) { c.Trace = trace })
	j, err := s.Submit("", "", []byte("x"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, s, j.ID, StateFailed)
	if failed.Attempts != 1 || calls.Load() != 1 {
		t.Errorf("attempts %d / calls %d, want 1/1", failed.Attempts, calls.Load())
	}
	if failed.Error != "solve: flaky backend" {
		t.Errorf("error %q, want the runner's", failed.Error)
	}
	if got, want := spanNames(t, trace, j.ID), []string{"enqueue", "queue-wait", "run"}; !slices.Equal(got, want) {
		t.Errorf("trace spans %v, want %v", got, want)
	}
}

// drainMidRun submits one job to a one-worker service over dir whose
// runner blocks, and closes the service with a drain deadline that expires
// while the job runs, which checkpoints it back to queued. It returns the
// job.
func drainMidRun(t *testing.T, dir string, trace *obs.TraceStore) Job {
	t.Helper()
	started := make(chan string, 1)
	s, _, err := NewService(Config{
		Dir: dir, Workers: 1, Trace: trace, Store: StoreOptions{NoSync: true},
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
	if s.Ready() {
		t.Error("service still ready after Close")
	}
	return j
}

// restartService opens a one-worker service over dir with runner, closed
// with the test.
func restartService(t *testing.T, dir string, trace *obs.TraceStore, runner Runner) *Service {
	t.Helper()
	s, _, err := NewService(Config{
		Dir: dir, Workers: 1, Trace: trace, Store: StoreOptions{NoSync: true},
	}, runner)
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

// TestServiceTransientExhaustion: Attempts counts starts, and a failing
// start is the job's last. A job drained mid-run and resumed on the next
// boot is on its second start; failing there with an error that calls
// itself transient, it stays failed with Attempts 2 and no third call.
func TestServiceTransientExhaustion(t *testing.T) {
	dir := t.TempDir()
	j := drainMidRun(t, dir, nil)
	var calls atomic.Int64
	s := restartService(t, dir, nil, func(ctx context.Context, j Job) ([]byte, error) {
		calls.Add(1)
		return nil, transientErr{}
	})
	failed := waitState(t, s, j.ID, StateFailed)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if failed.Attempts != 2 || calls.Load() != 1 {
		t.Errorf("attempts %d / calls after the restart %d, want 2/1", failed.Attempts, calls.Load())
	}
	if !strings.Contains(failed.Error, "flaky backend") {
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
		Dir: dir, Workers: 1, Store: StoreOptions{NoSync: true},
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
	running := <-started // one job is mid-run, four are queued
	s.Terminate()

	s2, replay, err := NewService(Config{
		Dir: dir, Workers: 2, Store: StoreOptions{NoSync: true},
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
		// The crash requeue is the running job's one extra start.
		want := 1
		if id == running {
			want = 2
		}
		if done.Attempts != want {
			t.Errorf("job %s attempts %d, want %d", id, done.Attempts, want)
		}
	}
	if got := s2.Metrics().Counter("phocus_jobs_requeued_total").Value(); got != 1 {
		t.Errorf("requeued counter %d, want 1", got)
	}
}

// TestServiceDrainCheckpoint: a job still running when the drain deadline
// expires is checkpointed back to queued — durably — and a restart resumes
// it instead of losing it: its second start finishes it, Attempts 2.
func TestServiceDrainCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j := drainMidRun(t, dir, nil)
	s2, replay, err := NewService(Config{
		Dir: dir, Workers: 1, Store: StoreOptions{NoSync: true},
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
	if done.Attempts != 2 {
		t.Errorf("attempts %d, want 2: the drained start and the resumed one", done.Attempts)
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

// TestBackoffDeterministic: a job's trace has no backoff or retry stage. A
// job that runs once records enqueue, queue-wait and one run span. A job
// drained mid-run and resumed by the next boot, over the same trace store,
// adds a drain checkpoint and a second queue-wait and run; its run spans
// carry attempts 1 and 2.
func TestBackoffDeterministic(t *testing.T) {
	dir := t.TempDir()
	trace := obs.NewTraceStore(0)
	resumed := drainMidRun(t, dir, trace)
	s := restartService(t, dir, trace, func(ctx context.Context, j Job) ([]byte, error) {
		return []byte("ok"), nil
	})
	waitState(t, s, resumed.ID, StateDone)
	once, err := s.Submit("", "", []byte("y"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, once.ID, StateDone)
	for _, c := range []struct {
		id    string
		spans []string
	}{
		{once.ID, []string{"enqueue", "queue-wait", "run"}},
		{resumed.ID, []string{"enqueue", "queue-wait", "run", "drain-checkpoint", "queue-wait", "run"}},
	} {
		if got := spanNames(t, trace, c.id); !slices.Equal(got, c.spans) {
			t.Fatalf("job %s: trace spans %v, want %v", c.id, got, c.spans)
		}
		tr, _ := trace.Get(c.id)
		attempt := 0
		for _, sp := range tr.Spans {
			if sp.Name != "run" {
				continue
			}
			attempt++
			if got := sp.Attrs["attempt"]; got != fmt.Sprint(attempt) {
				t.Errorf("job %s: run span %d has attempt %q", c.id, attempt, got)
			}
		}
	}
}
