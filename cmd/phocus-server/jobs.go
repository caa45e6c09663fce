// Async jobs API: the HTTP face of internal/jobs. POST /jobs answers 202
// with a job ID immediately; the solve runs on the job scheduler's worker
// pool through the same pipeline as /solve, status and result are polled
// by ID, and DELETE cancels (the cancel propagates into the solver through
// par.Solver's ctx, so even a mid-run job stops promptly).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"phocus/internal/fleet"
	"phocus/internal/jobs"
	"phocus/internal/obs"
	"phocus/internal/phocus"
)

// jobStatusDoc is the wire format of GET /jobs/{id} (and the body of 202 /
// 409 answers that describe a job).
type jobStatusDoc struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	State  string `json:"state"`
	// QueuePosition is the number of jobs ahead (0 = next to run); present
	// only while the job is queued.
	QueuePosition *int       `json:"queue_position,omitempty"`
	Attempts      int        `json:"attempts,omitempty"`
	Params        string     `json:"params,omitempty"`
	Error         string     `json:"error,omitempty"`
	SubmittedAt   time.Time  `json:"submitted_at"`
	NotBefore     *time.Time `json:"not_before,omitempty"`
	StartedAt     *time.Time `json:"started_at,omitempty"`
	FinishedAt    *time.Time `json:"finished_at,omitempty"`
	WaitMS        float64    `json:"wait_ms,omitempty"`
	RunMS         float64    `json:"run_ms,omitempty"`
	StatusURL     string     `json:"status_url"`
	ResultURL     string     `json:"result_url,omitempty"`
}

// jobDoc renders a job (and its queue position, -1 when not queued) for
// the wire.
func jobDoc(j jobs.Job, pos int) jobStatusDoc {
	doc := jobStatusDoc{
		ID:          j.ID,
		Tenant:      j.Tenant,
		State:       string(j.State),
		Attempts:    j.Attempts,
		Params:      j.Params,
		Error:       j.Error,
		SubmittedAt: j.SubmittedAt,
		StatusURL:   "/jobs/" + j.ID,
	}
	if j.State == jobs.StateQueued && pos >= 0 {
		doc.QueuePosition = &pos
	}
	if !j.NotBefore.IsZero() {
		t := j.NotBefore
		doc.NotBefore = &t
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		doc.StartedAt = &t
		doc.WaitMS = obs.DurMS(j.Wait())
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		doc.FinishedAt = &t
		doc.RunMS = obs.DurMS(j.Run())
	}
	if j.State == jobs.StateDone {
		doc.ResultURL = "/jobs/" + j.ID + "/result"
	}
	return doc
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleReadyz is the load-balancer readiness gate: 200 only once WAL
// replay has finished, the snapshot warm-fill (when -snapshot-dir is set)
// has refilled the prepare cache, and the queue is accepting; 503 before
// that and during the graceful-shutdown drain (so routing stops before
// intake does).
// Both 503 branches carry a Retry-After estimated from observed job run
// times (same clamped estimator as the 429 path), so pollers and load
// balancers back off a sane amount instead of hammering a warming replica.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.snapWarmed.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "warming prepared-instance cache", http.StatusServiceUnavailable)
		return
	}
	if s.jobs.Ready() {
		fmt.Fprintln(w, "ok")
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	http.Error(w, "draining", http.StatusServiceUnavailable)
}

// jobParams are the validated POST /jobs query parameters: a kind
// discriminator plus the kind's own parameters.
type jobParams struct {
	// kind selects the runner path: "solve" (default — one async solve),
	// "session" (one delta batch against a prepared instance), or
	// "retention" (a solve that reschedules itself).
	kind string
	// fp is the session kind's target fingerprint.
	fp string
	// every / runs drive the retention kind: re-run the solve every
	// interval, runs times in total.
	every time.Duration
	runs  int
	solve phocus.SolveRequest
}

// parseJobParams validates the POST /jobs query string by kind.
func parseJobParams(q url.Values) (jobParams, error) {
	p := jobParams{kind: q.Get("kind")}
	switch p.kind {
	case "", "solve":
		p.kind = "solve"
		sp, err := parseSolveParams(q)
		if err != nil {
			return p, err
		}
		p.solve = sp
	case "session":
		p.fp = q.Get("fp")
		if !phocus.ValidFingerprint(p.fp) {
			return p, fmt.Errorf("invalid fp %q: want the 64-hex fingerprint of a prepared instance", q.Get("fp"))
		}
	case "retention":
		every, err := time.ParseDuration(q.Get("every"))
		if err != nil || every <= 0 {
			return p, fmt.Errorf("invalid every %q: want a positive duration (e.g. 24h)", q.Get("every"))
		}
		runs, err := nonNegInt(q.Get("runs"), 0)
		if err != nil || runs < 1 {
			return p, fmt.Errorf("invalid runs %q: want a positive run count", q.Get("runs"))
		}
		p.every, p.runs = every, runs
		sp, err := parseSolveParams(q)
		if err != nil {
			return p, err
		}
		p.solve = sp
	default:
		return p, fmt.Errorf("unknown kind %q: want solve, session or retention", p.kind)
	}
	return p, nil
}

// handleJobSubmit is POST /jobs: validate params, read the payload, admit
// it. 202 with the job document on success; 429 + Retry-After when the
// queue caps reject it; 503 while draining.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	params, err := parseJobParams(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tenant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	// The job store keeps the body, so it never comes from the free list.
	body, err := readBody(w, r, s.maxBody, nil, nil)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if len(body) == 0 {
		want := "instance"
		if params.kind == "session" {
			want = "delta"
		}
		http.Error(w, "empty request body: want "+want+" JSON", http.StatusBadRequest)
		return
	}
	job, err := s.jobs.Submit(tenant, r.URL.RawQuery, body, time.Time{})
	if err != nil {
		s.rejectSaturated(w, err)
		return
	}
	_, pos, _ := s.jobs.Get(job.ID)
	writeJSON(w, http.StatusAccepted, jobDoc(job, pos))
}

// handleJobStatus is GET /jobs/{id}.
func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, pos, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, jobDoc(j, pos))
}

// handleJobResult is GET /jobs/{id}/result: the stored solve response for
// a done job; 409 with the status document for any other state.
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, pos, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if j.State != jobs.StateDone {
		writeJSON(w, http.StatusConflict, jobDoc(j, pos))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(j.Result)
}

// handleJobTrace is GET /jobs/{id}/trace: the retained span timeline of a
// job (or, since job IDs double as request IDs, of any recent request). 404
// when the ID was never traced or its timeline has been evicted.
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.trace.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no trace for %q (unknown ID, or evicted)", id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// handleSLO is GET /slo: every objective evaluated over its short and long
// burn-rate horizons, plus the worst-of overall status. The same evaluation
// refreshes the phocus_slo_* gauges so /metrics agrees with what it served.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Export(s.reg))
}

// handleJobCancel is DELETE /jobs/{id}: a queued job cancels immediately,
// a running one when the solver unwinds (202 — poll the status); already
// terminal jobs answer 409.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, jobs.ErrTerminal):
		writeJSON(w, http.StatusConflict, jobDoc(j, -1))
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		writeJSON(w, http.StatusAccepted, jobDoc(j, -1))
	}
}

// jobListDoc is the wire format of GET /jobs.
type jobListDoc struct {
	Total  int            `json:"total"`
	Offset int            `json:"offset"`
	Count  int            `json:"count"`
	Jobs   []jobStatusDoc `json:"jobs"`
}

// handleJobList is GET /jobs?offset=&limit=: jobs in submission order. A
// tenant (X-Phocus-Tenant header or ?tenant=) narrows the listing to that
// tenant's jobs; without one the listing spans all tenants, which is what
// the router's fleet-wide scatter-gather consumes. That listing leaves out
// each job's params: they can name a tenant's fingerprint (fp=…).
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, err := nonNegInt(q.Get("offset"), 0)
	if err != nil {
		http.Error(w, fmt.Sprintf("invalid offset %q: want a non-negative integer", q.Get("offset")), http.StatusBadRequest)
		return
	}
	limit, err := nonNegInt(q.Get("limit"), 100)
	if err != nil {
		http.Error(w, fmt.Sprintf("invalid limit %q: want a non-negative integer", q.Get("limit")), http.StatusBadRequest)
		return
	}
	var page []jobs.Job
	var total int
	scoped := r.Header.Get(fleet.TenantHeader) != "" || q.Get("tenant") != ""
	if scoped {
		tenant, terr := fleet.TenantFromRequest(r)
		if terr != nil {
			http.Error(w, terr.Error(), http.StatusBadRequest)
			return
		}
		page, total = s.jobs.ListTenant(tenant, offset, limit)
	} else {
		page, total = s.jobs.List(offset, limit)
	}
	docs := make([]jobStatusDoc, len(page))
	for i, j := range page {
		pos := -1
		if j.State == jobs.StateQueued {
			_, pos, _ = s.jobs.Get(j.ID)
		}
		if !scoped {
			j.Params = ""
		}
		docs[i] = jobDoc(j, pos)
	}
	writeJSON(w, http.StatusOK, jobListDoc{Total: total, Offset: offset, Count: len(docs), Jobs: docs})
}

// nonNegInt parses a non-negative integer query value ("" = def).
func nonNegInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid int %q", s)
	}
	return v, nil
}

// retentionResult is the stored result of one retention run: the solve
// response plus the recurrence bookkeeping (how many runs remain and the
// successor job carrying them).
type retentionResult struct {
	solveResponse
	RunsLeft  int        `json:"runs_left"`
	NextJobID string     `json:"next_job_id,omitempty"`
	NextRunAt *time.Time `json:"next_run_at,omitempty"`
}

// runJob is the scheduler's Runner, dispatching on the job's kind: session
// jobs apply a delta batch through the pipeline's Apply, solve jobs run one
// attempt through its Solve, and retention jobs solve and then schedule
// their own successor with a deferred Submit (runs−1, NotBefore now+every)
// so the chain survives restarts in the job WAL. The job ID doubles as the
// request ID so the job's spans and log lines correlate exactly like a
// synchronous request's. The per-job deadline is enforced by the scheduler's
// context, so no extra timeout is layered here.
func (s *server) runJob(ctx context.Context, job jobs.Job) ([]byte, error) {
	ctx = obs.WithRequestID(ctx, job.ID)
	ctx = obs.WithLogger(ctx, s.logger.With("req_id", job.ID))
	q, err := url.ParseQuery(job.Params)
	if err != nil {
		return nil, fmt.Errorf("job params: %w", err)
	}
	params, err := parseJobParams(q)
	if err != nil {
		return nil, fmt.Errorf("job params: %w", err)
	}
	if params.kind == "session" {
		stats, err := s.pipe.Apply(ctx, job.Tenant, params.fp, job.Body)
		if err != nil {
			return nil, err
		}
		return json.Marshal(newDeltaResponse(ctx, stats))
	}
	req := params.solve
	req.Tenant, req.Body, req.Start = job.Tenant, job.Body, time.Now()
	a, err := s.pipe.Solve(ctx, req)
	if err != nil {
		return nil, err
	}
	if params.kind != "retention" {
		return json.Marshal(newSolveResponse(ctx, a))
	}
	out := retentionResult{solveResponse: *newSolveResponse(ctx, a), RunsLeft: params.runs - 1}
	if params.runs > 1 {
		q.Set("runs", strconv.Itoa(params.runs-1))
		// The successor inherits the tenant: a retention chain never
		// migrates across tenants.
		next, err := s.jobs.Submit(job.Tenant, q.Encode(), job.Body, time.Now().Add(params.every))
		switch {
		case errors.Is(err, jobs.ErrDraining):
			// Shutdown raced the reschedule: end the chain rather than
			// block the drain; this run's result still records runs_left
			// so an operator can resubmit the remainder.
			obs.Logger(ctx).Warn("retention reschedule skipped: draining",
				"runs_left", out.RunsLeft)
		case err != nil:
			return nil, fmt.Errorf("retention reschedule: %w", err)
		default:
			out.NextJobID = next.ID
			out.NextRunAt = &next.NotBefore
		}
	}
	return json.Marshal(out)
}

// admitSync acquires a solver slot from the shared semaphore for a
// synchronous /solve. A free slot is taken immediately; otherwise the
// request waits in line — but only while the line is shorter than the job
// queue's depth cap, beyond which it is rejected with ErrQueueFull exactly
// like an over-cap job submission.
func (s *server) admitSync(ctx context.Context) (release func(), err error) {
	sem := s.jobs.Sem()
	if sem.TryAcquire() {
		return sem.Release, nil
	}
	if cap := s.jobs.QueueDepthCap(); cap > 0 && sem.Waiting() >= int64(cap) {
		return nil, jobs.ErrQueueFull
	}
	if err := sem.Acquire(ctx); err != nil {
		return nil, err
	}
	return sem.Release, nil
}

// rejectSaturated maps admission failures to backpressure responses:
// ErrQueueFull → 429 with a Retry-After estimated from observed job run
// times, ErrDraining → 503.
func (s *server) rejectSaturated(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, jobs.ErrDraining):
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retryAfterSeconds estimates how long a rejected client should back off:
// the time for the scheduler to chew through a full queue at the observed
// mean job run time, clamped to [1s, 60s]. Every input is guarded — an
// empty or poisoned histogram (NaN/Inf sums), a zero worker pool, or an
// uncapped queue must still produce a sane positive header, never 0 or
// garbage (conversion of NaN/Inf to int is platform-defined in Go).
func (s *server) retryAfterSeconds() int {
	h := s.reg.Histogram("phocus_jobs_run_seconds", obs.DefBuckets)
	mean := 1.0
	if n := h.Count(); n > 0 {
		if m := h.Sum() / float64(n); m > 0 && !math.IsInf(m, 1) && !math.IsNaN(m) {
			mean = m
		}
	}
	depth := s.jobs.QueueDepthCap()
	if depth <= 0 {
		depth = 1
	}
	slots := s.jobs.Sem().Cap()
	if slots <= 0 {
		slots = 1
	}
	est := mean * float64(depth) / float64(slots)
	// The float comparison rejects NaN too (any comparison with NaN is
	// false, so est stays inside the clamp before the int conversion).
	sec := 60
	if est < 59 {
		sec = int(est) + 1
	}
	if sec < 1 {
		sec = 1
	}
	return sec
}
