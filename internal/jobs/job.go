// Package jobs turns solves into first-class asynchronous jobs with a
// durable lifecycle: a write-ahead-logged Store that survives crashes, a
// bounded Queue with admission control, and a Service that drains the queue
// onto a worker pool with per-job deadlines and graceful shutdown.
// phocus-server mounts it behind POST /jobs so large solves no longer hold
// an HTTP connection open and bursts get backpressure (429) instead of
// unbounded queueing.
//
// The state machine is
//
//	queued → running → done
//	                 → failed    (the Runner's error, or the deadline)
//	                 → canceled  (DELETE /jobs/{id} or pre-run cancel)
//	        running → queued     (crash replay or shutdown checkpoint)
//
// done, failed and canceled are terminal. A job found running in the WAL on
// restart was interrupted by a crash and is re-queued exactly once during
// replay; a job still running at graceful shutdown is checkpointed back to
// queued so the next boot resumes it.
package jobs

import (
	"errors"
	"fmt"
	"time"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final (no further transitions).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Valid reports whether s is one of the five lifecycle states.
func (s State) Valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Job is one unit of asynchronous work: an opaque payload plus its
// lifecycle bookkeeping. The jobs package never interprets Params or Body —
// the Runner the Service is configured with does.
type Job struct {
	// ID is the job's unique identifier (assigned by the Service).
	ID string `json:"id"`
	// Tenant is the owning tenant. It is omitempty for WAL back-compat:
	// pre-tenancy v1 records carry no tenant and replay assigns them
	// fleet.DefaultTenant, so an upgraded shard keeps serving its old jobs.
	Tenant string `json:"tenant,omitempty"`
	// Seq orders jobs by submission (monotonic across restarts); listings
	// and queue replay use it.
	Seq uint64 `json:"seq"`
	// Params is the submitter's opaque parameter string (phocus-server
	// stores the raw solve query string here).
	Params string `json:"params,omitempty"`
	// Body is the opaque payload (the instance JSON). It is dropped from
	// the record once the job reaches a terminal state so snapshots stay
	// proportional to in-flight work, not history.
	Body []byte `json:"body,omitempty"`
	// BodyBytes is len(Body) at submission; it keeps byte accounting valid
	// after Body is dropped.
	BodyBytes int64 `json:"body_bytes"`

	State State `json:"state"`
	// Attempts counts the job's starts. A job runs once, unless a drain
	// checkpoint or a crash requeue puts it back in the queue: then its
	// next start counts again.
	Attempts int `json:"attempts,omitempty"`
	// Error is the final error chain of a failed job (or the cancel cause).
	Error string `json:"error,omitempty"`
	// Result is the Runner's output for a done job.
	Result []byte `json:"result,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	// NotBefore, when set, defers execution: the job sits in state queued
	// (outside the runnable queue) until the deadline passes. Deferral
	// survives restarts — replay re-arms a future deadline and immediately
	// requeues a past-due one. Recurring work (phocus-server's retention
	// jobs) is built on it: each run schedules its successor with a
	// deferred Submit.
	NotBefore time.Time `json:"not_before,omitempty"`
}

// Deferred reports whether the job is still waiting out its NotBefore
// deadline (relative to now).
func (j *Job) Deferred(now time.Time) bool {
	return j.State == StateQueued && !j.NotBefore.IsZero() && j.NotBefore.After(now)
}

// Wait returns how long the job sat queued before its (last) start; zero
// until it has started.
func (j *Job) Wait() time.Duration {
	if j.StartedAt.IsZero() {
		return 0
	}
	return j.StartedAt.Sub(j.SubmittedAt)
}

// Run returns the wall-clock of the (last) run; zero until the job has
// finished.
func (j *Job) Run() time.Duration {
	if j.StartedAt.IsZero() || j.FinishedAt.IsZero() {
		return 0
	}
	return j.FinishedAt.Sub(j.StartedAt)
}

// Sentinel errors of the subsystem. The server maps ErrQueueFull to 429
// with Retry-After, ErrDraining to 503, ErrNotFound to 404 and ErrTerminal
// to 409.
var (
	// ErrQueueFull rejects a submission that would exceed the queue's depth
	// or byte bound (admission control — the caller should back off).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects intake while the service shuts down.
	ErrDraining = errors.New("jobs: service draining")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal rejects an operation (cancel) on an already-finished job.
	ErrTerminal = errors.New("jobs: job already terminal")
	// ErrCanceled is the cancellation cause recorded when DELETE /jobs/{id}
	// stops a job.
	ErrCanceled = errors.New("jobs: canceled by request")
)

// QueueFullError is the concrete ErrQueueFull carrying the bound that was
// hit, so 429 responses can say which limit to back off from.
type QueueFullError struct {
	Depth    int   // queued jobs at rejection time
	MaxDepth int   // configured depth bound (0 = unbounded)
	Bytes    int64 // queued payload bytes at rejection time
	MaxBytes int64 // configured byte bound (0 = unbounded)
}

// Error implements error.
func (e *QueueFullError) Error() string {
	if e.MaxBytes > 0 && e.Bytes >= e.MaxBytes {
		return fmt.Sprintf("jobs: queue full (%d bytes queued, byte cap %d)", e.Bytes, e.MaxBytes)
	}
	return fmt.Sprintf("jobs: queue full (%d jobs queued, depth cap %d)", e.Depth, e.MaxDepth)
}

// Is makes errors.Is(err, ErrQueueFull) match.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }
