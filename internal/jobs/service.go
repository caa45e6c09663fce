package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phocus/internal/fleet"
	"phocus/internal/obs"
	"phocus/internal/pool"
)

// Runner executes one start of a job: it interprets the job's Params and
// Body and returns the result payload. A Runner must honor ctx cancellation
// promptly (phocus-server's runner routes it into par.Solver's ctx, so a
// cancel stops the solve mid-run). An error fails the job, its message
// kept.
type Runner func(ctx context.Context, job Job) ([]byte, error)

// Config tunes a Service.
type Config struct {
	// Dir is the durable data directory ("" = memory-only, no crash
	// recovery).
	Dir string
	// Workers is the scheduler's worker-pool size (≤ 0 = one per CPU).
	Workers int
	// QueueDepth / QueueBytes bound the queue (≤ 0 = unbounded).
	QueueDepth int
	QueueBytes int64
	// JobTimeout, when positive, deadlines each start of a job; an expired
	// job fails with the deadline error.
	JobTimeout time.Duration
	// Metrics receives the phocus_jobs_* series (nil = a private registry).
	Metrics *obs.Registry
	// SLO, when set, receives the job-wait sliding-window series
	// (obs.SLOJobWait) so wait-time objectives see async pressure live.
	SLO *obs.SLOTracker
	// Trace, when set, receives per-job lifecycle span timelines (enqueue,
	// queue-wait, runs, drain checkpoints) keyed by job ID, alongside
	// whatever spans the Runner itself records.
	Trace *obs.TraceStore
	// Logger receives job lifecycle events (nil = discard).
	Logger *slog.Logger
	// Store tunes WAL durability.
	Store StoreOptions
}

// Service is the async job subsystem: a durable Store, a bounded Queue and
// a worker-pool scheduler, glued together behind the submit/status/cancel
// API phocus-server mounts under /jobs. All methods are safe for concurrent
// use.
type Service struct {
	cfg    Config
	reg    *obs.Registry
	logger *slog.Logger
	runner Runner

	// mu guards the store (every read and mutation), the cancels and timers
	// maps and the killed flag. The queue and sem have their own
	// synchronization.
	mu      sync.Mutex
	store   *Store
	cancels map[string]context.CancelCauseFunc
	// timers holds the deferral timer of every deferred job still waiting
	// out its NotBefore deadline; firing moves the job into the runnable
	// queue. An entry's absence after a deferred Submit means the job was
	// canceled or the service stopped (the job then stays queued in the WAL
	// and the next boot re-arms it).
	timers map[string]*time.Timer
	killed bool

	queue *Queue
	// sem is the shared solve-capacity semaphore: scheduler workers hold a
	// slot per running job and the server's synchronous /solve path
	// acquires from the same Sem (shared admission).
	sem *pool.Sem

	popCtx    context.Context
	popCancel context.CancelFunc
	wg        sync.WaitGroup

	running  atomic.Int64
	ready    atomic.Bool
	draining atomic.Bool
}

// errDraining is the cancel cause of a shutdown checkpoint; errKilled the
// cause of Terminate (crash simulation).
var errKilled = errors.New("jobs: terminated")

// NewService opens (and replays) the store under cfg.Dir, re-queues
// recovered jobs, and starts the scheduler. It returns the service together
// with the replay accounting.
func NewService(cfg Config, runner Runner) (*Service, ReplayStats, error) {
	if runner == nil {
		return nil, ReplayStats{}, errors.New("jobs: nil Runner")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	store, replay, err := Open(cfg.Dir, cfg.Store)
	if err != nil {
		return nil, replay, err
	}
	s := &Service{
		cfg:     cfg,
		reg:     cfg.Metrics,
		logger:  cfg.Logger,
		runner:  runner,
		store:   store,
		cancels: make(map[string]context.CancelCauseFunc),
		timers:  make(map[string]*time.Timer),
		queue:   NewQueue(cfg.QueueDepth, cfg.QueueBytes),
		sem:     pool.NewSem(cfg.Workers),
	}
	s.popCtx, s.popCancel = context.WithCancel(context.Background())

	obs.RecordJobWALCorrupt(s.reg, int64(replay.Corrupt))
	obs.RecordJobRequeued(s.reg, int64(replay.Requeued))
	obs.RecordJobTempSwept(s.reg, int64(replay.TempSwept))
	// Recovered jobs were admitted before the crash; Requeue bypasses the
	// caps so a tighter restart configuration cannot drop them. A deferred
	// job whose NotBefore is still ahead re-arms its timer instead; one
	// that came due while the process was down requeues immediately.
	now := time.Now()
	s.mu.Lock() // a re-armed timer may fire into fireTimer immediately
	for _, j := range store.List() {
		if j.State != StateQueued {
			continue
		}
		if j.Deferred(now) {
			s.armTimer(j.ID, j.NotBefore.Sub(now), j.BodyBytes)
			continue
		}
		if err := s.queue.Requeue(j.ID, j.BodyBytes); err != nil {
			s.mu.Unlock()
			return nil, replay, err
		}
	}
	deferred := len(s.timers)
	s.mu.Unlock()
	obs.SetJobQueueGauges(s.reg, s.queue.Depth(), s.queue.Bytes())
	obs.SetJobsDeferred(s.reg, deferred)

	workers := s.sem.Cap()
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	s.ready.Store(true)
	if replay.Jobs > 0 || replay.Corrupt > 0 {
		s.logger.Info("jobs replayed", "jobs", replay.Jobs, "queued", replay.Queued,
			"requeued", replay.Requeued, "corrupt", replay.Corrupt)
	}
	return s, replay, nil
}

// newJobID returns a fresh 16-hex-character job ID.
func newJobID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "rand-err"
	}
	return hex.EncodeToString(buf[:])
}

// Sem exposes the shared solve-capacity semaphore so the server's
// synchronous path shares admission with the scheduler.
func (s *Service) Sem() *pool.Sem { return s.sem }

// QueueDepthCap returns the configured queue depth bound (0 = unbounded);
// the server uses it to bound the synchronous wait line symmetrically.
func (s *Service) QueueDepthCap() int { return s.cfg.QueueDepth }

// Ready reports whether the service is accepting work: WAL replay has
// finished and shutdown has not begun. /readyz keys off it.
func (s *Service) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Submit admits a new job owned by the given tenant ("" = the default
// tenant). A zero or past notBefore admits it as runnable now: admission
// control first (ErrQueueFull → 429), then the WAL submit record, then the
// queue. A future notBefore defers it: the job lands durably in the WAL
// (state queued, NotBefore set) but enters the runnable queue only when the
// deadline passes. Deferred jobs bypass the queue caps when they fire —
// they were admitted at submit time, like a requeue — and survive restarts:
// replay re-arms pending deadlines and requeues past-due ones. The returned
// Job is the accepted snapshot (state queued).
func (s *Service) Submit(tenant, params string, body []byte, notBefore time.Time) (Job, error) {
	if !s.Ready() {
		return Job{}, ErrDraining
	}
	if tenant == "" {
		tenant = fleet.DefaultTenant
	}
	job := &Job{
		ID:          newJobID(),
		Tenant:      tenant,
		Params:      params,
		Body:        body,
		BodyBytes:   int64(len(body)),
		State:       StateQueued,
		SubmittedAt: time.Now(),
	}
	deferred := notBefore.After(job.SubmittedAt)
	if deferred {
		job.NotBefore = notBefore
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return Job{}, ErrDraining
	}
	if deferred {
		if err := s.store.Submit(job); err != nil {
			return Job{}, err
		}
		s.armTimer(job.ID, time.Until(notBefore), job.BodyBytes)
		obs.RecordJobDeferred(s.reg, len(s.timers))
		s.cfg.Trace.Add(job.ID, obs.SpanRecord{
			Name: "defer", Start: job.SubmittedAt,
			Attrs: map[string]string{"not_before": notBefore.Format(time.RFC3339)},
		})
		s.logger.Info("job deferred", "job_id", job.ID, "not_before", notBefore, "bytes", job.BodyBytes)
		return *job, nil
	}
	// Push before the WAL write reserves the slot atomically under mu; a
	// worker popping the ID blocks on mu until the store insert lands.
	if err := s.queue.Push(job.ID, job.BodyBytes); err != nil {
		obs.RecordJobRejected(s.reg)
		if errors.Is(err, ErrQueueClosed) {
			return Job{}, ErrDraining
		}
		return Job{}, err
	}
	if err := s.store.Submit(job); err != nil {
		s.queue.Remove(job.ID)
		return Job{}, err
	}
	obs.RecordJobEnqueued(s.reg, s.queue.Depth(), s.queue.Bytes())
	s.cfg.Trace.Add(job.ID, obs.SpanRecord{
		Name: "enqueue", Start: job.SubmittedAt,
		Attrs: map[string]string{
			"depth": strconv.Itoa(s.queue.Depth()),
			"bytes": strconv.FormatInt(job.BodyBytes, 10),
		},
	})
	s.logger.Info("job enqueued", "job_id", job.ID, "bytes", job.BodyBytes, "depth", s.queue.Depth())
	return *job, nil
}

// armTimer schedules the deferral timer that moves a job into the runnable
// queue. Callers hold s.mu.
func (s *Service) armTimer(id string, d time.Duration, bytes int64) {
	if d < 0 {
		d = 0
	}
	s.timers[id] = time.AfterFunc(d, func() { s.fireTimer(id, bytes) })
}

// fireTimer is a deferral timer's payload: requeue the job unless it was
// canceled or the service stopped in the meantime (it then stays queued in
// the WAL for the next boot to pick up).
func (s *Service) fireTimer(id string, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.timers[id]; !ok {
		return // canceled or stopped while the timer was in flight
	}
	delete(s.timers, id)
	obs.SetJobsDeferred(s.reg, len(s.timers))
	if s.killed {
		return
	}
	j, ok := s.store.Get(id)
	if !ok || j.State != StateQueued {
		return
	}
	if err := s.queue.Requeue(id, bytes); err != nil {
		// Queue closed by shutdown: the job stays queued durably.
		return
	}
	obs.RecordJobEnqueued(s.reg, s.queue.Depth(), s.queue.Bytes())
	s.logger.Info("deferred job released", "job_id", id, "depth", s.queue.Depth())
}

// stopTimersLocked stops and forgets every pending deferral timer (shutdown
// and crash simulation); the jobs stay queued in the WAL. Callers hold s.mu.
func (s *Service) stopTimersLocked() {
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
}

// Get returns the job and, when it is still queued, its 0-based queue
// position (-1 otherwise).
func (s *Service) Get(id string) (Job, int, error) {
	s.mu.Lock()
	j, ok := s.store.Get(id)
	s.mu.Unlock()
	if !ok {
		return Job{}, -1, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	pos := -1
	if j.State == StateQueued {
		pos = s.queue.Position(id)
	}
	return j, pos, nil
}

// List returns up to limit jobs starting at offset (submission order),
// along with the total count. limit ≤ 0 means a default page of 100.
func (s *Service) List(offset, limit int) ([]Job, int) {
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	all := s.store.List()
	s.mu.Unlock()
	total := len(all)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	return all[offset:end], total
}

// ListTenant returns up to limit of the tenant's jobs starting at offset
// (submission order within the tenant), along with the tenant's total. An
// empty tenant matches DefaultTenant (pre-tenancy records were assigned it
// at replay). limit ≤ 0 means a default page of 100.
func (s *Service) ListTenant(tenant string, offset, limit int) ([]Job, int) {
	if tenant == "" {
		tenant = fleet.DefaultTenant
	}
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	all := s.store.List()
	s.mu.Unlock()
	mine := all[:0:0]
	for _, j := range all {
		if j.Tenant == tenant {
			mine = append(mine, j)
		}
	}
	total := len(mine)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	return mine[offset:end], total
}

// Counts returns the number of retained jobs per lifecycle state.
func (s *Service) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make(map[State]int, 5)
	for _, j := range s.store.List() {
		counts[j.State]++
	}
	return counts
}

// Cancel stops a job: a queued job is removed from the queue and marked
// canceled immediately; a running job has its context canceled (with cause
// ErrCanceled) and reaches state canceled when the solver unwinds. Terminal
// jobs return ErrTerminal.
func (s *Service) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.store.Get(id)
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch {
	case j.State.Terminal():
		return j, ErrTerminal
	case j.State == StateQueued:
		if t, ok := s.timers[id]; ok {
			t.Stop()
			delete(s.timers, id)
			obs.SetJobsDeferred(s.reg, len(s.timers))
		}
		s.queue.Remove(id)
		obs.SetJobQueueGauges(s.reg, s.queue.Depth(), s.queue.Bytes())
		up, err := s.update(&jobUpdate{ID: id, State: StateCanceled, Error: ErrCanceled.Error()})
		if err != nil {
			return Job{}, err
		}
		obs.RecordJobDone(s.reg, string(StateCanceled), 0)
		s.logger.Info("job canceled", "job_id", id, "phase", "queued")
		return up, nil
	default: // running: the worker owns the terminal transition
		if cancel, ok := s.cancels[id]; ok {
			cancel(ErrCanceled)
		}
		s.logger.Info("job cancel requested", "job_id", id, "phase", "running")
		return j, nil
	}
}

// update applies a store update unless the service was Terminated (crash
// simulation freezes all writes, like a dead process). Callers hold s.mu.
func (s *Service) update(up *jobUpdate) (Job, error) {
	if s.killed {
		return Job{}, errKilled
	}
	return s.store.Update(up)
}

// worker drains the queue until it closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		id, err := s.queue.Pop(s.popCtx)
		if err != nil {
			return
		}
		if err := s.sem.Acquire(s.popCtx); err != nil {
			// Shutdown raced the pop; the job stays queued in the store and
			// the next boot re-queues it.
			return
		}
		s.runJob(id)
		s.sem.Release()
	}
}

// runJob starts one job: it runs the Runner once and records the outcome.
// Job.Attempts counts the starts.
func (s *Service) runJob(id string) {
	s.mu.Lock()
	j, ok := s.store.Get(id)
	if !ok || j.State != StateQueued {
		// Canceled (or lost to a failed submit) between pop and start.
		s.mu.Unlock()
		return
	}
	attempts := j.Attempts + 1
	j, err := s.update(&jobUpdate{ID: id, State: StateRunning, Attempts: attempts})
	if err != nil {
		s.mu.Unlock()
		s.logger.Error("job start", "job_id", id, "err", err)
		return
	}
	jctx, cancel := context.WithCancelCause(context.Background())
	s.cancels[id] = cancel
	obs.SetJobQueueGauges(s.reg, s.queue.Depth(), s.queue.Bytes())
	s.mu.Unlock()

	obs.RecordJobStart(s.reg, j.Wait())
	if s.cfg.SLO != nil {
		s.cfg.SLO.Latency(obs.SLOJobWait).Observe(j.Wait().Seconds())
	}
	// The queue-wait stage ended the moment the job started; record it as a
	// synthetic span so the job's trace timeline covers submit → start.
	s.cfg.Trace.Add(id, obs.SpanRecord{
		Name: "queue-wait", Start: j.SubmittedAt,
		DurationMS: float64(j.Wait().Microseconds()) / 1000,
	})
	obs.SetJobsRunning(s.reg, s.running.Add(1))
	s.logger.Info("job running", "job_id", id, "attempt", attempts, "wait", j.Wait().Round(time.Millisecond))

	// A job runs under the same obs plumbing as a synchronous request: the
	// job ID doubles as the request ID, spans the Runner starts land in the
	// shared trace store, and every span log line carries the job ID.
	jctx = obs.WithRequestID(jctx, id)
	jctx = obs.WithLogger(jctx, s.logger.With("job_id", id))
	if s.cfg.Trace != nil {
		jctx = obs.WithTraceStore(jctx, s.cfg.Trace)
	}

	runCtx := jctx
	var timeoutCancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		runCtx, timeoutCancel = context.WithTimeout(jctx, s.cfg.JobTimeout)
	}

	runCtx, span := obs.StartSpan(runCtx, "run")
	result, runErr := s.runner(runCtx, j)
	if runErr != nil {
		span.End("attempt", attempts, "err", runErr.Error())
	} else {
		span.End("attempt", attempts)
	}
	if timeoutCancel != nil {
		timeoutCancel()
	}

	s.mu.Lock()
	delete(s.cancels, id)
	up := &jobUpdate{ID: id, Attempts: attempts}
	switch {
	case runErr == nil:
		up.State = StateDone
		up.Result = result
	case errors.Is(context.Cause(jctx), ErrCanceled):
		up.State = StateCanceled
		up.Error = ErrCanceled.Error()
	case errors.Is(context.Cause(jctx), ErrDraining):
		// Shutdown checkpoint: back to queued, durably, so the next boot
		// resumes the job instead of losing it.
		up.State = StateQueued
	default:
		// A runner error, deadline expiry included; the error chain is
		// preserved verbatim for GET /jobs/{id}.
		up.State = StateFailed
		up.Error = runErr.Error()
	}
	final, err := s.update(up)
	s.mu.Unlock()
	cancel(nil)
	obs.SetJobsRunning(s.reg, s.running.Add(-1))
	if err != nil {
		if !errors.Is(err, errKilled) {
			s.logger.Error("job finalize", "job_id", id, "err", err)
		}
		return
	}
	switch up.State {
	case StateQueued:
		obs.RecordJobRequeued(s.reg, 1)
		s.cfg.Trace.Add(id, obs.SpanRecord{
			Name: "drain-checkpoint", Start: time.Now(),
			Attrs: map[string]string{"attempt": strconv.Itoa(attempts)},
		})
		s.logger.Info("job checkpointed", "job_id", id, "attempt", attempts)
	default:
		obs.RecordJobDone(s.reg, string(up.State), final.Run())
		s.logger.Info("job finished", "job_id", id, "state", up.State,
			"attempts", attempts, "run", final.Run().Round(time.Millisecond), "err", up.Error)
	}
}

// BeginDrain flips the service out of ready (Submit → ErrDraining, /readyz
// → 503) without stopping running jobs; Close implies it. Safe to call more
// than once.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Close shuts the service down gracefully: intake stops, workers finish
// their running jobs until ctx expires, any job still running then is
// canceled with cause ErrDraining and checkpointed back to queued, and the
// store flushes a final snapshot. Jobs still queued simply stay queued in
// the WAL for the next boot.
func (s *Service) Close(ctx context.Context) error {
	s.BeginDrain()
	s.mu.Lock()
	s.stopTimersLocked()
	s.mu.Unlock()
	s.queue.Close()
	s.popCancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for id, cancel := range s.cancels {
			s.logger.Warn("job drain deadline, checkpointing", "job_id", id)
			cancel(ErrDraining)
		}
		s.mu.Unlock()
		<-done
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return nil
	}
	obs.SetJobQueueGauges(s.reg, 0, 0)
	return s.store.Close()
}

// Terminate simulates a crash (SIGKILL) in-process: every store write from
// this moment fails silently, file handles close without a final snapshot
// or checkpoint records, and workers are cut loose. The on-disk WAL stays
// exactly as the last acknowledged append left it, so a subsequent
// NewService on the same directory exercises true crash recovery.
// Test-only by intent.
func (s *Service) Terminate() {
	s.mu.Lock()
	s.killed = true
	s.store.Abandon()
	s.stopTimersLocked()
	for _, cancel := range s.cancels {
		cancel(errKilled)
	}
	s.mu.Unlock()
	s.draining.Store(true)
	s.queue.Close()
	s.popCancel()
	s.wg.Wait()
}

// Metrics returns the registry the service records into.
func (s *Service) Metrics() *obs.Registry { return s.reg }
