package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"phocus/internal/par"
)

// jobsTestServer builds a server tuned for the async-jobs tests and mounts
// its full handler chain on an httptest server.
func jobsTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.MaxBody == 0 {
		cfg.MaxBody = 256 << 20
	}
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), cfg)
	srv := httptest.NewServer(s.telemetry(s.mux(false)))
	t.Cleanup(srv.Close)
	return s, srv
}

// getJobDoc fetches GET /jobs/{id}, decoding the document on 200/202/409.
func getJobDoc(t *testing.T, base, id string) (int, jobStatusDoc) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc jobStatusDoc
	if resp.StatusCode != http.StatusNotFound {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decode status doc (%d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, doc
}

// waitJobState polls the status endpoint until the job reaches want.
func waitJobState(t *testing.T, base, id, want string) jobStatusDoc {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last jobStatusDoc
	for time.Now().Before(deadline) {
		code, doc := getJobDoc(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("status endpoint for %s: %d", id, code)
		}
		last = doc
		if doc.State == want {
			return doc
		}
		switch doc.State {
		case "done", "failed", "canceled":
			t.Fatalf("job %s reached %s (err %q), want %s", id, doc.State, doc.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (stuck at %q)", id, want, last.State)
	return jobStatusDoc{}
}

// submitJob POSTs a job and returns the HTTP status with the 202 document.
func submitJob(t *testing.T, base, query, body string) (*http.Response, jobStatusDoc) {
	t.Helper()
	resp, err := http.Post(base+"/jobs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc jobStatusDoc
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	return resp, doc
}

// TestJobsEndToEnd: POST /jobs answers 202 immediately, the job runs
// through the shared solve pipeline, and GET …/result returns exactly the
// response a synchronous /solve would have produced.
func TestJobsEndToEnd(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 2})
	body := instanceBody(t, 3.0).String()

	resp, doc := submitJob(t, srv.URL, "?algo=celf", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if doc.ID == "" || doc.State != "queued" || doc.StatusURL != "/jobs/"+doc.ID {
		t.Fatalf("202 document %+v", doc)
	}

	done := waitJobState(t, srv.URL, doc.ID, "done")
	if done.ResultURL != "/jobs/"+doc.ID+"/result" {
		t.Errorf("done doc missing result URL: %+v", done)
	}
	if done.Attempts != 1 {
		t.Errorf("attempts %d, want 1", done.Attempts)
	}

	rr, err := http.Get(srv.URL + done.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", rr.StatusCode)
	}
	var out solveResponse
	if err := json.NewDecoder(rr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// The async answer must match the synchronous one (Figure 3 trace).
	sync := postSolve(t, srv.URL+"/solve?algo=celf", body)
	if out.Score != sync.Score || len(out.Retain) != len(sync.Retain) || out.Algorithm != sync.Algorithm {
		t.Fatalf("async result %+v diverged from sync %+v", out, sync)
	}
	// The job's request ID is its job ID, so result and status correlate.
	if out.RequestID != doc.ID {
		t.Errorf("result request_id %q, want job ID %q", out.RequestID, doc.ID)
	}

	// The listing sees the job.
	lr, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var list jobListDoc
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 1 || list.Count != 1 || list.Jobs[0].ID != doc.ID {
		t.Fatalf("listing %+v", list)
	}

	// Cancel after completion conflicts.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+doc.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusConflict {
		t.Errorf("cancel terminal job: %d, want 409", dr.StatusCode)
	}
}

func TestJobsValidation(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 1})
	cases := []struct {
		name, query, body string
		want              int
	}{
		{"bad algo", "?algo=magic", "{}", http.StatusBadRequest},
		{"bad tau", "?tau=7", "{}", http.StatusBadRequest},
		{"empty body", "", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := submitJob(t, srv.URL, tc.query, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	for _, path := range []string{"/jobs/ghost", "/jobs/ghost/result"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/ghost", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: %d, want 404", resp.StatusCode)
	}
	lr, err := http.Get(srv.URL + "/jobs?offset=bogus")
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus offset: %d, want 400", lr.StatusCode)
	}
}

// TestReadyz: ready after boot (WAL replayed), 503 once draining begins —
// while /healthz stays 200 (liveness vs readiness).
func TestReadyz(t *testing.T) {
	s, srv := jobsTestServer(t, serverConfig{JobWorkers: 1})
	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/readyz", http.StatusOK)
	s.jobs.BeginDrain()
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", http.StatusOK)
	// Intake refuses during drain.
	resp, _ := submitJob(t, srv.URL, "", instanceBody(t, 3.0).String())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestJobsAdmission429: with the worker slots held and the queue capped,
// submissions overflow into 429 with a Retry-After hint; canceling a queued
// job frees its slot for the next submission.
func TestJobsAdmission429(t *testing.T) {
	s, srv := jobsTestServer(t, serverConfig{JobWorkers: 2, QueueDepth: 2})
	// Occupy both solver slots so nothing drains; workers park in
	// sem.Acquire after popping at most one job each.
	sem := s.jobs.Sem()
	for i := 0; i < sem.Cap(); i++ {
		if !sem.TryAcquire() {
			t.Fatal("could not occupy solver slot")
		}
		defer sem.Release()
	}
	body := instanceBody(t, 3.0).String()
	var admitted []string
	got429 := false
	var retryAfter string
	for i := 0; i < 10 && !got429; i++ {
		resp, doc := submitJob(t, srv.URL, "", body)
		switch resp.StatusCode {
		case http.StatusAccepted:
			admitted = append(admitted, doc.ID)
		case http.StatusTooManyRequests:
			got429 = true
			retryAfter = resp.Header.Get("Retry-After")
		default:
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if !got429 {
		t.Fatal("queue cap never produced a 429")
	}
	if sec, err := strconv.Atoi(retryAfter); err != nil || sec < 1 {
		t.Errorf("Retry-After %q, want a positive integer of seconds", retryAfter)
	}
	if got := s.reg.Counter("phocus_jobs_rejected_total").Value(); got < 1 {
		t.Errorf("rejected counter %d", got)
	}
	// A queued job cancels instantly and frees queue room. Pick one with a
	// reported queue position: a job already popped by a parked worker is
	// "queued" in the store but no longer occupies queue capacity.
	var queuedID string
	for _, id := range admitted {
		if _, doc := getJobDoc(t, srv.URL, id); doc.State == "queued" && doc.QueuePosition != nil {
			queuedID = id
			break
		}
	}
	if queuedID == "" {
		t.Fatal("no job left in the queue proper")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+queuedID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var doc jobStatusDoc
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || doc.State != "canceled" {
		t.Fatalf("cancel queued: %d %+v", resp.StatusCode, doc)
	}
	if resp2, _ := submitJob(t, srv.URL, "", body); resp2.StatusCode != http.StatusAccepted {
		t.Errorf("submit after freeing a slot: %d, want 202", resp2.StatusCode)
	}
}

// TestSolveSharesAdmission covers the satellite: the synchronous /solve
// path draws from the same semaphore as the scheduler and rejects with 429
// once its wait line reaches the queue-depth cap, instead of queueing
// unboundedly.
func TestSolveSharesAdmission(t *testing.T) {
	s, srv := jobsTestServer(t, serverConfig{JobWorkers: 1, QueueDepth: 1})
	sem := s.jobs.Sem()
	if !sem.TryAcquire() {
		t.Fatal("could not occupy the solver slot")
	}
	body := instanceBody(t, 3.0).String()

	// First synchronous request enters the bounded wait line.
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sem.Waiting() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sem.Waiting() < 1 {
		t.Fatal("first solve never queued on the semaphore")
	}

	// The line is now at the depth cap: the next request is rejected.
	resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated sync solve: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Freeing the slot lets the waiting request complete normally.
	sem.Release()
	select {
	case code := <-firstDone:
		if code != http.StatusOK {
			t.Fatalf("waiting solve finished with %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiting solve never completed after release")
	}
}

// TestJobCancelRaces covers the cancellation satellite: DELETE while
// queued and DELETE mid-run both land in state canceled (the mid-run
// cancel propagating into the solver through the job context), and the
// whole dance leaks no goroutines.
func TestJobCancelRaces(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		s, srv := jobsTestServer(t, serverConfig{JobWorkers: 1})

		// A 90-photo Sviridenko solve runs for seconds (measured ~3s at one
		// worker), leaving a wide window for the mid-run DELETE; the cancel
		// then stops it within milliseconds.
		rng := rand.New(rand.NewSource(11))
		inst := par.Random(rng, par.RandomConfig{Photos: 90, Subsets: 45, BudgetFrac: 0.5})
		var big bytes.Buffer
		if err := par.WriteJSON(&big, inst); err != nil {
			t.Fatal(err)
		}

		resp, running := submitJob(t, srv.URL, "?algo=sviridenko", big.String())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		waitJobState(t, srv.URL, running.ID, "running")

		// While the worker is busy, a second job parks in the queue; DELETE
		// cancels it without it ever starting.
		resp, queued := submitJob(t, srv.URL, "", instanceBody(t, 3.0).String())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("second submit: %d", resp.StatusCode)
		}
		if code, doc := getJobDoc(t, srv.URL, queued.ID); code != http.StatusOK || doc.State != "queued" {
			t.Fatalf("second job not queued: %d %+v", code, doc)
		}
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+queued.ID, nil)
		dr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var doc jobStatusDoc
		json.NewDecoder(dr.Body).Decode(&doc)
		dr.Body.Close()
		if dr.StatusCode != http.StatusAccepted || doc.State != "canceled" {
			t.Fatalf("cancel queued job: %d %+v", dr.StatusCode, doc)
		}

		// Result of the running job conflicts while it runs.
		rr, err := http.Get(srv.URL + "/jobs/" + running.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		rr.Body.Close()
		if rr.StatusCode != http.StatusConflict {
			t.Fatalf("result mid-run: %d, want 409", rr.StatusCode)
		}

		// DELETE mid-run: the cancel must travel through the job context
		// into the solver and unwind it.
		req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+running.ID, nil)
		dr, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dr.Body.Close()
		if dr.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel running job: %d, want 202", dr.StatusCode)
		}
		final := waitJobState(t, srv.URL, running.ID, "canceled")
		if final.Error == "" {
			t.Error("canceled job lost its cancel cause")
		}
		if got := s.reg.Counter("phocus_jobs_canceled_total").Value(); got != 2 {
			t.Errorf("canceled counter %d, want 2", got)
		}
	}()

	// Everything is closed by the deferred cleanups once the closure exits —
	// run them now by... they are test-scoped, so instead allow the worker
	// and HTTP goroutines to unwind and compare counts with slack.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after cancellation races", before, runtime.NumGoroutine())
}

// TestJobsCrashRestartAgreement covers the durability acceptance: SIGKILL
// (simulated) mid-burst loses zero admitted jobs, and after restart the
// status and result endpoints agree with the replayed WAL.
func TestJobsCrashRestartAgreement(t *testing.T) {
	dir := t.TempDir()
	s1, srv1 := jobsTestServer(t, serverConfig{JobWorkers: 2, QueueDepth: 8, DataDir: dir})
	// Hold the solver slots so every admitted job is still queued (in the
	// WAL sense) when the crash hits.
	sem := s1.jobs.Sem()
	for i := 0; i < sem.Cap(); i++ {
		if !sem.TryAcquire() {
			t.Fatal("could not occupy solver slot")
		}
	}
	body := instanceBody(t, 3.0).String()
	var admitted []string
	for i := 0; i < 6; i++ {
		resp, doc := submitJob(t, srv1.URL, "?algo=celf", body)
		if resp.StatusCode == http.StatusAccepted {
			admitted = append(admitted, doc.ID)
		}
	}
	if len(admitted) == 0 {
		t.Fatal("no jobs admitted before the crash")
	}
	s1.jobs.Terminate() // SIGKILL: no snapshot, no checkpoint records
	srv1.Close()

	s2, srv2 := jobsTestServer(t, serverConfig{JobWorkers: 2, QueueDepth: 8, DataDir: dir})
	// Zero admitted jobs lost: every pre-crash ID reaches done and serves
	// its result.
	for _, id := range admitted {
		done := waitJobState(t, srv2.URL, id, "done")
		if done.Attempts < 1 {
			t.Errorf("job %s done with %d attempts", id, done.Attempts)
		}
		rr, err := http.Get(srv2.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var out solveResponse
		if err := json.NewDecoder(rr.Body).Decode(&out); err != nil {
			t.Fatalf("job %s result after replay: %v", id, err)
		}
		rr.Body.Close()
		if out.Score < 13.24 || out.Score > 13.26 {
			t.Errorf("job %s replayed result score %.4f, want 13.25", id, out.Score)
		}
	}
	// The listing agrees with the WAL: all admitted jobs, all done.
	lr, err := http.Get(srv2.URL + "/jobs?limit=100")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var list jobListDoc
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Total != len(admitted) {
		t.Fatalf("listing total %d, want %d", list.Total, len(admitted))
	}
	for _, j := range list.Jobs {
		if j.State != "done" {
			t.Errorf("job %s state %q after recovery", j.ID, j.State)
		}
	}
	if got := s2.reg.Counter("phocus_jobs_completed_total").Value(); got != int64(len(admitted)) {
		t.Errorf("completed counter %d, want %d", got, len(admitted))
	}
}
