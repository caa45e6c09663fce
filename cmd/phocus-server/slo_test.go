package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"phocus/internal/obs"
)

func TestSLOEndpoint(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 2})

	// One async job + one sync solve feed the solve, job-wait, HTTP and
	// 429-rate series.
	body := instanceBody(t, 3.0).String()
	resp, doc := submitJob(t, srv.URL, "?algo=celf", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	waitJobState(t, srv.URL, doc.ID, "done")
	postSolve(t, srv.URL+"/solve?algo=celf", body)

	sr, err := http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("/slo status %d", sr.StatusCode)
	}
	var rep obs.SLOReport
	if err := json.NewDecoder(sr.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != obs.SLOOK {
		t.Errorf("overall status %q, want ok (fast test traffic)", rep.Status)
	}
	byName := map[string]obs.ObjectiveStatus{}
	for _, o := range rep.Objectives {
		byName[o.Name] = o
	}
	for _, name := range []string{"solve_p95", "http_p99", "job_wait_p99", "reject_429_rate"} {
		o, ok := byName[name]
		if !ok {
			t.Fatalf("objective %q missing from /slo: %+v", name, rep.Objectives)
		}
		if o.Status != obs.SLOOK {
			t.Errorf("%s status %q, want ok", name, o.Status)
		}
	}
	// The series that traffic touched must have samples.
	for _, name := range []string{"solve_p95", "http_p99", "job_wait_p99", "reject_429_rate"} {
		if byName[name].Short.Samples == 0 {
			t.Errorf("%s short window has no samples", name)
		}
	}

	// /metrics carries the mirrored gauges.
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mr.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`phocus_slo_status{objective="solve_p95"} 0`,
		`phocus_slo_burn_rate{objective="reject_429_rate",window="short"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestSLOBreachOn429Storm(t *testing.T) {
	// A tiny admission budget (1 worker, depth cap 1) plus a burst of
	// submissions drives the 429 fraction far past the 5% objective; both
	// horizons see only storm traffic, so the objective reports breach.
	s, srv := jobsTestServer(t, serverConfig{JobWorkers: 1, QueueDepth: 1})
	// Hold the solver slot so the queue cannot drain between submissions:
	// a job that finishes first frees its place for the next one, and the
	// burst then sees too few 429s to breach.
	sem := s.jobs.Sem()
	if !sem.TryAcquire() {
		t.Fatal("could not occupy solver slot")
	}
	defer sem.Release()
	body := instanceBody(t, 3.0).String()
	saw429 := false
	for i := 0; i < 30; i++ {
		resp, _ := submitJob(t, srv.URL, "?algo=celf", body)
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
		}
	}
	if !saw429 {
		t.Skip("burst never saturated the queue; cannot exercise the breach path")
	}
	rep := s.slo.Report()
	var reject obs.ObjectiveStatus
	for _, o := range rep.Objectives {
		if o.Name == "reject_429_rate" {
			reject = o
		}
	}
	if reject.Status != obs.SLOBreach {
		t.Errorf("reject_429_rate status %q (short %+v long %+v), want breach",
			reject.Status, reject.Short, reject.Long)
	}
	if rep.Status != obs.SLOBreach {
		t.Errorf("overall status %q, want breach", rep.Status)
	}
}

func TestJobTraceEndpoint(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 2})
	body := instanceBody(t, 3.0).String()
	resp, doc := submitJob(t, srv.URL, "?algo=celf", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	waitJobState(t, srv.URL, doc.ID, "done")

	tr, err := http.Get(srv.URL + "/jobs/" + doc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tr.StatusCode)
	}
	var trace obs.Trace
	if err := json.NewDecoder(tr.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if trace.ID != doc.ID {
		t.Errorf("trace ID %q, want %q", trace.ID, doc.ID)
	}
	// The timeline must cover the whole lifecycle: the queue stages from the
	// scheduler plus the solve stages from the runner.
	stages := map[string]bool{}
	for _, sp := range trace.Spans {
		stages[sp.Name] = true
	}
	for _, want := range []string{"enqueue", "queue-wait", "run", "decode", "solve"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, stages)
		}
	}
	// Stage ordering: enqueue precedes queue-wait precedes run.
	idx := map[string]int{}
	for i, sp := range trace.Spans {
		if _, seen := idx[sp.Name]; !seen {
			idx[sp.Name] = i
		}
	}
	if !(idx["enqueue"] < idx["queue-wait"] && idx["queue-wait"] < idx["run"]) {
		t.Errorf("lifecycle stages out of order: %v", idx)
	}

	// Unknown IDs 404.
	nf, err := http.Get(srv.URL + "/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status %d, want 404", nf.StatusCode)
	}
}

func TestSyncSolveTraceRetrievable(t *testing.T) {
	// Sync /solve requests share the trace store; their request ID looks up
	// the same way a job ID does.
	s, srv := jobsTestServer(t, serverConfig{JobWorkers: 2})
	body := instanceBody(t, 3.0).String()
	resp, err := http.Post(srv.URL+"/solve?algo=celf", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("no X-Request-ID header")
	}
	trace, ok := s.trace.Get(reqID)
	if !ok {
		t.Fatalf("no trace stored for sync request %q", reqID)
	}
	names := map[string]bool{}
	for _, sp := range trace.Spans {
		names[sp.Name] = true
	}
	if !names["decode"] || !names["solve"] || !names["encode"] {
		t.Errorf("sync trace stages = %v, want decode/solve/encode", names)
	}
}

func TestNewLogger(t *testing.T) {
	var sb strings.Builder
	l, err := newLogger(&sb, "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello", "k", "v")
	if !strings.HasPrefix(strings.TrimSpace(sb.String()), "{") || !strings.Contains(sb.String(), `"k":"v"`) {
		t.Errorf("json log output %q", sb.String())
	}
	sb.Reset()
	l, err = newLogger(&sb, "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello")
	if strings.HasPrefix(strings.TrimSpace(sb.String()), "{") {
		t.Errorf("text log output looks like JSON: %q", sb.String())
	}
	if _, err := newLogger(&sb, "yaml"); err == nil {
		t.Error("newLogger(yaml) did not fail")
	}
}
