package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"phocus/internal/dataset"
	"phocus/internal/fleet"
	"phocus/internal/par"
	"phocus/internal/solvertest"
)

// newTestServer builds a server with the default body limit logging to
// logs (io.Discard when nil) and returns it with its full handler chain.
func newTestServer(t testing.TB, logs io.Writer) (*server, http.Handler) {
	t.Helper()
	if logs == nil {
		logs = io.Discard
	}
	s := mustServer(t, slog.New(slog.NewTextHandler(logs, nil)), serverConfig{
		MaxBody: 256 << 20, Workers: 2, ExactMaxNodes: 50_000_000,
		CacheEntries: 64, CacheBytes: 1 << 30,
	})
	return s, s.telemetry(s.mux(false))
}

// mustServer builds a server from cfg (WAL fsync off for test speed, and a
// 16-entry, 1 GiB prepare cache unless cfg bounds it) and tears the job
// service down with the test.
func mustServer(t testing.TB, logger *slog.Logger, cfg serverConfig) *server {
	t.Helper()
	cfg.JobStoreNoSync = true
	if cfg.CacheEntries <= 0 && cfg.CacheBytes <= 0 {
		cfg.CacheEntries, cfg.CacheBytes = 16, 1<<30
	}
	s, err := newServer(logger, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.jobs.Close(ctx)
	})
	return s
}

func instanceBody(t *testing.T, budget float64) *bytes.Buffer {
	t.Helper()
	inst := par.Figure1Instance()
	inst.Budget = budget
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := par.WriteJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestHealthz(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestSolveEndpoint(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/solve?algo=celf", "application/json", instanceBody(t, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "PHOcus" {
		t.Errorf("algorithm %q", out.Algorithm)
	}
	// Figure 3's trace: p1, p6, p2 retained at budget 3.0; score 13.25.
	if len(out.Retain) != 3 || out.Score < 13.24 || out.Score > 13.26 {
		t.Errorf("retain %v score %.4f, want 3 photos at 13.25", out.Retain, out.Score)
	}
	if len(out.Archive) != 4 {
		t.Errorf("archive %v, want 4 photos", out.Archive)
	}
	if out.OnlineBound < out.Score {
		t.Errorf("bound %.4f below score %.4f", out.OnlineBound, out.Score)
	}
	// The solver work stats ride along.
	if out.Stats == nil || out.Stats.GainEvals <= 0 || out.Stats.PQPops <= 0 {
		t.Errorf("stats missing or empty: %+v", out.Stats)
	}
	if out.Stats != nil && out.Stats.Winner != "UC" && out.Stats.Winner != "CB" {
		t.Errorf("winner %q, want UC or CB", out.Stats.Winner)
	}
}

func TestSolveBudgetOverrideAndTau(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/solve?budget=1.3&tau=0.6&algo=exact", "application/json", instanceBody(t, 8.2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Budget != 1.3 {
		t.Errorf("budget %g, want override 1.3", out.Budget)
	}
	if out.Cost > 1.3 {
		t.Errorf("cost %g exceeds overridden budget", out.Cost)
	}
	if out.Algorithm != "Brute-Force" {
		t.Errorf("algorithm %q", out.Algorithm)
	}
}

func TestSolveErrors(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	valid := instanceBody(t, 3.0).String()
	cases := []struct {
		name, url, body string
		wantStatus      int
	}{
		{"bad json", "/solve", "{", http.StatusBadRequest},
		// Only whitespace may follow the instance.
		{"trailing junk", "/solve", valid + " garbage", http.StatusBadRequest},
		{"second instance", "/solve", valid + valid, http.StatusBadRequest},
		{"bad algo", "/solve?algo=magic", "", http.StatusBadRequest},
		{"bad budget", "/solve?budget=-3", "", http.StatusBadRequest},
		{"bad tau", "/solve?tau=7", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		body := tc.body
		if body == "" {
			body = valid
		}
		resp, err := http.Post(srv.URL+tc.url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}
}

func TestMethodRouting(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /solve status %d, want method-not-allowed", resp.StatusCode)
	}
}

func TestLoggingMiddleware(t *testing.T) {
	var buf bytes.Buffer
	_, h := newTestServer(t, &buf)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(srv.URL+"/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	logs := buf.String()
	if !strings.Contains(logs, "path=/healthz") || !strings.Contains(logs, "status=200") {
		t.Errorf("missing healthz log line:\n%s", logs)
	}
	if !strings.Contains(logs, "path=/solve") || !strings.Contains(logs, "status=400") {
		t.Errorf("missing solve error log line:\n%s", logs)
	}
}

// TestRequestIDPropagation checks the acceptance criterion: the /solve
// response carries a request ID that matches the X-Request-ID header and
// appears on every span log line emitted for that request.
func TestRequestIDPropagation(t *testing.T) {
	var buf bytes.Buffer
	_, h := newTestServer(t, &buf)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/solve?tau=0.6", "application/json", instanceBody(t, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID == "" {
		t.Fatal("response has no request_id")
	}
	if hdr := resp.Header.Get("X-Request-ID"); hdr != out.RequestID {
		t.Errorf("header ID %q != body ID %q", hdr, out.RequestID)
	}

	spanLines := 0
	spans := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "msg=span") {
			continue
		}
		spanLines++
		if !strings.Contains(line, "req_id="+out.RequestID) {
			t.Errorf("span line missing request ID %q: %s", out.RequestID, line)
		}
		if m := regexp.MustCompile(`span=(\w+)`).FindStringSubmatch(line); m != nil {
			spans[m[1]] = true
		}
	}
	for _, stage := range []string{"decode", "sparsify", "solve", "encode"} {
		if !spans[stage] {
			t.Errorf("no span logged for stage %q (got %v)", stage, spans)
		}
	}
	if spanLines < 4 {
		t.Errorf("only %d span lines:\n%s", spanLines, buf.String())
	}
}

// TestRequestIDFromClientHeader: a client-supplied ID is reused, not
// replaced.
func TestRequestIDFromClientHeader(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	req, err := http.NewRequest("GET", srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-1" {
		t.Errorf("X-Request-ID = %q, want client-id-1", got)
	}
}

// TestMetricsEndpoint checks the acceptance criterion: after one POST
// /solve, GET /metrics exposes request-latency histogram buckets, a
// per-algorithm solve counter, and gain-eval totals.
func TestMetricsEndpoint(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/solve", "application/json", instanceBody(t, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`phocus_http_request_seconds_bucket{route="/solve",le="`,
		`phocus_http_requests_total{class="2xx",route="/solve"} 1`,
		`phocus_solve_total{algo="PHOcus",workers="2"} 1`,
		`phocus_solver_gain_evals_total{algo="PHOcus"}`,
		`phocus_solve_seconds_count{algo="PHOcus",workers="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/solve", "application/json", instanceBody(t, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap[`phocus_solve_total{algo="PHOcus",workers="2"}`]; !ok {
		t.Errorf("vars missing solve counter; keys: %d", len(snap))
	}
}

// TestNewServerRequiresCacheBound: the prepare cache is not optional, so a
// configuration leaving both of its bounds unset is a start-up error.
func TestNewServerRequiresCacheBound(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, cfg := range []serverConfig{
		{CacheEntries: 0, CacheBytes: 0},
		{CacheEntries: -1, CacheBytes: 0},
	} {
		cfg.MaxBody, cfg.Workers, cfg.JobStoreNoSync = 1<<20, 1, true
		if s, err := newServer(logger, cfg); err == nil {
			s.jobs.Close(context.Background())
			t.Errorf("entries %d bytes %d: newServer succeeded, want a start-up error", cfg.CacheEntries, cfg.CacheBytes)
		}
	}
}

// TestMaxBodyLimit: an oversized body gets 413, not a decode error.
func TestMaxBodyLimit(t *testing.T) {
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{MaxBody: 64, Workers: 2})
	srv := httptest.NewServer(s.telemetry(s.mux(false)))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/solve", "application/json", instanceBody(t, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
}

// TestCancelBeforeSolve: an already-canceled request stops between the
// sparsify and solve stages and bumps the canceled counter.
func TestCancelBeforeSolve(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/solve?tau=0.6", instanceBody(t, 3.0)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.handleSolve(rec, req)
	if got := s.reg.Counter("phocus_http_canceled_total", "route", "/solve").Value(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("canceled request still produced a body: %q", rec.Body.String())
	}
	if got := s.reg.Counter("phocus_solve_total", "algo", "PHOcus").Value(); got != 0 {
		t.Errorf("solve ran despite cancellation (count %d)", got)
	}
}

// postSolve posts body to url and decodes the solve response.
func postSolve(t *testing.T, url, body string) solveResponse {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPrepareCacheSweep covers the acceptance criterion: a budget sweep
// posting the same archive body prepares (and sparsifies) exactly once —
// every later budget goes straight to the solver via the cache — and warm
// results are identical to cold ones.
func TestPrepareCacheSweep(t *testing.T) {
	s, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// One body, many budgets: the query-string budget is a Run parameter
	// and must not change the cache key.
	body := instanceBody(t, 8.2).String()
	warm := map[string]solveResponse{}
	for _, budget := range []string{"1.3", "2.6", "3.9", "1.3"} {
		warm[budget] = postSolve(t, srv.URL+"/solve?tau=0.6&budget="+budget, body)
	}

	if hits := s.reg.Counter("phocus_prepare_cache_hits_total").Value(); hits != 3 {
		t.Errorf("cache hits = %d, want 3", hits)
	}
	if misses := s.reg.Counter("phocus_prepare_cache_misses_total").Value(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}

	// The counters are visible on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metricsText, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"phocus_prepare_cache_hits_total 3",
		"phocus_prepare_cache_misses_total 1",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsText)
		}
	}

	// A warm answer must be byte-for-byte the cold answer.
	_, coldH := newTestServer(t, nil)
	coldSrv := httptest.NewServer(coldH)
	defer coldSrv.Close()
	cold := postSolve(t, coldSrv.URL+"/solve?tau=0.6&budget=2.6", body)
	hot := warm["2.6"]
	if cold.Score != hot.Score || cold.Budget != hot.Budget || len(cold.Retain) != len(hot.Retain) {
		t.Fatalf("warm result diverged from cold: %+v vs %+v", hot, cold)
	}
	for i := range cold.Retain {
		if cold.Retain[i] != hot.Retain[i] {
			t.Fatalf("warm selection diverged from cold: %v vs %v", hot.Retain, cold.Retain)
		}
	}
}

// TestSolveTracePrefix: a /solve at a budget below one already solved on
// the cached archive continues the recorded CELF passes. Its stats and solve
// span carry the replayed prefix, a full pass omits it, and the answer is a
// cold server's.
func TestSolveTracePrefix(t *testing.T) {
	s, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	body := instanceBody(t, 8.2).String()
	solveSpanPrefix := func(id string) string {
		t.Helper()
		tr, ok := s.trace.Get(id)
		if !ok {
			t.Fatalf("no trace for request %s", id)
		}
		for _, sp := range tr.Spans {
			if sp.Name == "solve" {
				return sp.Attrs["trace_prefix"]
			}
		}
		t.Fatalf("request %s has no solve span", id)
		return ""
	}

	full := postSolve(t, srv.URL+"/solve?tau=0.6&budget=3.9", body)
	if full.Stats == nil || full.Stats.TracePrefix != 0 {
		t.Fatalf("first solve stats %+v, want a full pass", full.Stats)
	}
	if got := solveSpanPrefix(full.RequestID); got != "0" {
		t.Errorf("full pass solve span trace_prefix = %q, want 0", got)
	}
	cont := postSolve(t, srv.URL+"/solve?tau=0.6&budget=2.6", body)
	if cont.Stats == nil || cont.Stats.TracePrefix <= 0 {
		t.Fatalf("solve below the traced budget stats %+v, want a trace prefix", cont.Stats)
	}
	if got, want := solveSpanPrefix(cont.RequestID), strconv.Itoa(cont.Stats.TracePrefix); got != want {
		t.Errorf("continued solve span trace_prefix = %q, want %s", got, want)
	}

	_, coldH := newTestServer(t, nil)
	coldSrv := httptest.NewServer(coldH)
	defer coldSrv.Close()
	cold := postSolve(t, coldSrv.URL+"/solve?tau=0.6&budget=2.6", body)
	if cold.Stats.TracePrefix != 0 || cold.Score != cont.Score || cold.Cost != cont.Cost || fmt.Sprint(cold.Retain) != fmt.Sprint(cont.Retain) {
		t.Fatalf("continued answer %v (score %v) differs from cold %v (score %v)", cont.Retain, cont.Score, cold.Retain, cold.Score)
	}
}

// TestSolveBoundStage: the solve span carries the rescore and online-bound
// stage times, and the response's stats report the bound's share of the
// solve.
func TestSolveBoundStage(t *testing.T) {
	s, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	out := postSolve(t, srv.URL+"/solve?tau=0.6&budget=3.9", instanceBody(t, 8.2).String())
	if out.Stats == nil || out.Stats.BoundMS < 0 || out.Stats.BoundMS > out.Stats.ElapsedMS {
		t.Fatalf("stats %+v: want 0 <= bound_ms <= elapsed_ms", out.Stats)
	}
	tr, ok := s.trace.Get(out.RequestID)
	if !ok {
		t.Fatalf("no trace for request %s", out.RequestID)
	}
	for _, sp := range tr.Spans {
		if sp.Name != "solve" {
			continue
		}
		for _, key := range []string{"rescore_ms", "bound_ms"} {
			if v, err := strconv.ParseFloat(sp.Attrs[key], 64); err != nil || v < 0 {
				t.Errorf("solve span %s = %q, want a duration in ms", key, sp.Attrs[key])
			}
		}
		return
	}
	t.Fatalf("request %s has no solve span", out.RequestID)
}

// TestPrepareCacheEvictionMetric: a one-entry cache evicts on the second
// distinct preparation and the eviction shows up on the counter.
func TestPrepareCacheEvictionMetric(t *testing.T) {
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{
		MaxBody: 1 << 20, Workers: 1, CacheEntries: 1, CacheBytes: 1 << 30,
	})
	srv := httptest.NewServer(s.telemetry(s.mux(false)))
	defer srv.Close()
	body := instanceBody(t, 3.0).String()
	postSolve(t, srv.URL+"/solve?tau=0.5", body)
	postSolve(t, srv.URL+"/solve?tau=0.6", body) // new fingerprint, cache full
	if got := s.reg.Counter("phocus_prepare_cache_evictions_total").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestClientDisconnectDuringSolve: a request context that cancels partway
// through the solver (as a client disconnect does) stops the solve mid-run,
// bumps phocus_solve_canceled_total, and writes nothing to the gone client.
func TestClientDisconnectDuringSolve(t *testing.T) {
	s, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(33))
	inst := par.Random(rng, par.RandomConfig{Photos: 60, Subsets: 20, BudgetFrac: 0.4})
	var body bytes.Buffer
	if err := par.WriteJSON(&body, inst); err != nil {
		t.Fatal(err)
	}
	// Polls 1–3 are Prepare entry, the pre-solve gate, and Run entry; the
	// countdown lets those pass so the cancellation lands inside the solver.
	ctx := solvertest.NewCountdownContext(5)
	req := httptest.NewRequest("POST", "/solve", &body).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.handleSolve(rec, req)

	if got := s.reg.Counter("phocus_solve_canceled_total", "algo", "PHOcus").Value(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("disconnected client still got a body: %q", rec.Body.String())
	}
	var metricsText bytes.Buffer
	if err := s.reg.WritePrometheus(&metricsText); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsText.String(), `phocus_solve_canceled_total{algo="PHOcus"} 1`) {
		t.Errorf("exposition missing canceled counter:\n%s", metricsText.String())
	}
}

// TestSolveTimeout: with -solve-timeout set, an expired deadline stops the
// solve, answers 503, and counts into phocus_solve_canceled_total.
func TestSolveTimeout(t *testing.T) {
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{
		MaxBody: 1 << 20, Workers: 2, SolveTimeout: time.Nanosecond,
		CacheEntries: 4, CacheBytes: 1 << 30,
	})
	srv := httptest.NewServer(s.telemetry(s.mux(false)))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/solve", "application/json", instanceBody(t, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "solve timed out") {
		t.Errorf("body %q, want timeout message", msg)
	}
	if got := s.reg.Counter("phocus_solve_canceled_total", "algo", "PHOcus").Value(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
}

// vectorBody serializes a generated dataset for /solve, with or without
// the per-subset context vectors LSH sparsification needs.
func vectorBody(t *testing.T, withVectors bool) (string, float64) {
	t.Helper()
	ds, err := dataset.GeneratePublic(dataset.PublicSpec{Name: "t", NumPhotos: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if withVectors {
		vecs := make([][][]float64, len(ds.CtxVectors))
		for i, group := range ds.CtxVectors {
			vecs[i] = make([][]float64, len(group))
			for j, v := range group {
				vecs[i][j] = v
			}
		}
		err = par.WriteJSONVectors(&buf, ds.Instance, vecs)
	} else {
		err = par.WriteJSON(&buf, ds.Instance)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), 0.3 * ds.Instance.TotalCost()
}

// TestSolveLSHParams covers the lsh=1&seed=N satellite: a body written with
// vectors solves under LSH sparsification; the same request without vectors
// is a 400 naming exactly what is missing.
func TestSolveLSHParams(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	body, budget := vectorBody(t, true)
	budget = float64(int64(budget)) // keep the query string integral
	query := fmt.Sprintf("/solve?lsh=1&tau=0.6&seed=2&budget=%.0f", budget)
	out := postSolve(t, srv.URL+query, body)
	if out.Score <= 0 || len(out.Retain) == 0 {
		t.Errorf("LSH solve returned score %.4f, retain %v", out.Score, out.Retain)
	}
	if out.Cost > budget {
		t.Errorf("cost %g exceeds budget %g", out.Cost, budget)
	}

	bare, _ := vectorBody(t, false)
	resp, err := http.Post(srv.URL+query, "application/json", strings.NewReader(bare))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("vectorless lsh=1: status %d, want 400", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "requires per-subset context vectors") {
		t.Errorf("vectorless lsh=1 body %q, want context-vector error", msg)
	}
}

// TestSolveParamMessages pins the consistent 400 texts from
// parseSolveParams — every rejection follows the same
// "invalid <param> %q: want ..." shape.
func TestSolveParamMessages(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	body := instanceBody(t, 3.0).String()
	cases := []struct{ query, want string }{
		{"budget=-3", `invalid budget "-3": want a positive number of bytes`},
		{"budget=nope", `invalid budget "nope": want a positive number of bytes`},
		{"tau=7", `invalid tau "7": want a number in [0,1]`},
		{"algo=magic", `unknown algo "magic": want celf, sviridenko, exact or streaming`},
		{"lsh=2", `invalid lsh "2": want 0 or 1`},
		{"lsh=1", `invalid lsh "1": requires tau > 0`},
		{"seed=x", `invalid seed "x": want an integer`},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/solve?"+tc.query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.query, resp.StatusCode)
			continue
		}
		if got := strings.TrimSpace(string(msg)); got != tc.want {
			t.Errorf("%s: message %q, want %q", tc.query, got, tc.want)
		}
	}
}

// TestStatusWriter covers the satellite checklist: implicit 200, explicit
// WriteHeader capture, and http.Flusher passthrough.
func TestStatusWriter(t *testing.T) {
	t.Run("implicit 200", func(t *testing.T) {
		rec := httptest.NewRecorder()
		sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
		if _, err := sw.Write([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		if sw.status != http.StatusOK || rec.Code != http.StatusOK {
			t.Errorf("status = %d/%d, want 200", sw.status, rec.Code)
		}
	})
	t.Run("explicit WriteHeader", func(t *testing.T) {
		rec := httptest.NewRecorder()
		sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
		sw.WriteHeader(http.StatusTeapot)
		if sw.status != http.StatusTeapot || rec.Code != http.StatusTeapot {
			t.Errorf("status = %d/%d, want 418", sw.status, rec.Code)
		}
	})
	t.Run("flusher passthrough", func(t *testing.T) {
		rec := httptest.NewRecorder()
		sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
		var flusher http.Flusher = sw // statusWriter must implement Flusher
		flusher.Flush()
		if !rec.Flushed {
			t.Error("Flush did not reach the underlying writer")
		}
	})
	t.Run("flusher on non-flushing writer", func(t *testing.T) {
		sw := &statusWriter{ResponseWriter: nopResponseWriter{}, status: http.StatusOK}
		sw.Flush() // must not panic
	})
}

// nopResponseWriter is a ResponseWriter without Flusher support.
type nopResponseWriter struct{}

func (nopResponseWriter) Header() http.Header         { return http.Header{} }
func (nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (nopResponseWriter) WriteHeader(int)             {}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/solve":                "/solve",
		"/metrics":              "/metrics",
		"/debug/pprof/profile":  "/debug/pprof/",
		"/totally/unknown/path": "other",
	}
	for in, want := range cases {
		if got := routeLabel(in); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMiddlewareStatusClasses: the per-route counter buckets by status
// class.
func TestMiddlewareStatusClasses(t *testing.T) {
	s, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	if _, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.reg.Counter("phocus_http_requests_total", "route", "/healthz", "class", "2xx").Value(); got != 1 {
		t.Errorf("healthz 2xx counter = %d, want 1", got)
	}
	if got := s.reg.Counter("phocus_http_requests_total", "route", "/solve", "class", "4xx").Value(); got != 1 {
		t.Errorf("solve 4xx counter = %d, want 1", got)
	}
}

// TestPprofGated: /debug/pprof/ is 404 unless the flag enables it.
func TestPprofGated(t *testing.T) {
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{MaxBody: 1 << 20, Workers: 2})
	off := httptest.NewServer(s.telemetry(s.mux(false)))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(s.telemetry(s.mux(true)))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}

// TestSolveFingerprintCarriesOver: the digest covers the whole body. For a
// WriteJSON body, which ends in a newline, that is what the streaming
// decoder used to hash, so fingerprints and the snapshot files keyed by
// them stay valid. The golden values were recorded before the decoder
// moved to whole-body reads.
func TestSolveFingerprintCarriesOver(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	body := instanceBody(t, 8.2).String()
	if !strings.HasSuffix(body, "\n") {
		t.Fatal("WriteJSON body does not end in a newline")
	}
	for tenant, want := range map[string]string{
		"":     "05f618f805ba57961ad0ec7eebc1045e746322c26e8d7dfcb39cb7d225fa688d",
		"acme": "c752b3e93319e4be6d5490e6689a949c4a02b1f31828901ea59439ad7ff55d1d",
	} {
		req, err := http.NewRequest("POST", srv.URL+"/solve?tau=0.6&budget=2.6", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(fleet.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out solveResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.Fingerprint != want {
			t.Errorf("tenant %q: fingerprint %s, want %s", tenant, out.Fingerprint, want)
		}
	}
}

// TestSolveBudgetBelowRetainedCost pins the answer to a ?budget= below the
// retained set's cost C(S0). It is the same whether the archive is cold (a
// cache miss, whose body is parsed) or already prepared (a hit, never
// parsed): a 400 on /solve, and a failed job with the same text on /jobs.
func TestSolveBudgetBelowRetainedCost(t *testing.T) {
	s, srv := jobsTestServer(t, serverConfig{Workers: 1})
	inst := par.Figure1Instance()
	inst.Retained = []par.PhotoID{2} // C(S0) = 2.1
	inst.Budget = 8.2
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := par.WriteJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	for i, tc := range []struct {
		route, budget string
		warm          bool
		want          string
	}{
		{"/solve", "0.5", false, "invalid budget 0.5: par: retained set S0 costs 2.1 bytes, exceeding budget 0.5"},
		{"/solve", "0.5", true, "invalid budget 0.5: par: retained set S0 costs 2.1 bytes, exceeding budget 0.5"},
		{"/solve", "2", false, "invalid budget 2: par: retained set S0 costs 2.1 bytes, exceeding budget 2"},
		{"/solve", "2", true, "invalid budget 2: par: retained set S0 costs 2.1 bytes, exceeding budget 2"},
		{"/jobs", "2", false, "invalid budget 2: par: retained set S0 costs 2.1 bytes, exceeding budget 2"},
		{"/jobs", "2", true, "invalid budget 2: par: retained set S0 costs 2.1 bytes, exceeding budget 2"},
	} {
		name := fmt.Sprintf("%s?budget=%s warm=%v", tc.route, tc.budget, tc.warm)
		tenant := fmt.Sprintf("budget-%d", i)
		if tc.warm {
			if code, msg := postAs(t, srv.URL+"/solve?budget=2.1", tenant, body); code != http.StatusOK {
				t.Fatalf("%s: warming solve at budget 2.1 = C(S0): %d %q", name, code, msg)
			}
		}
		var status, msg string
		hits, misses := cacheDelta(s, func() {
			code, out := postAs(t, srv.URL+tc.route+"?budget="+tc.budget, tenant, body)
			if tc.route == "/solve" {
				status, msg = strconv.Itoa(code), string(out)
				return
			}
			var doc jobStatusDoc
			if code != http.StatusAccepted || json.Unmarshal(out, &doc) != nil {
				t.Fatalf("%s: submit %d %q", name, code, out)
			}
			doc = waitJobState(t, srv.URL, doc.ID, "failed")
			status, msg = doc.State, doc.Error+"\n"
		})
		wantStatus := "400"
		if tc.route == "/jobs" {
			wantStatus = "failed"
		}
		if status != wantStatus || msg != tc.want+"\n" {
			t.Errorf("%s: %s %q, want %s %q", name, status, msg, wantStatus, tc.want)
		}
		if wantHits := map[bool]int64{false: 0, true: 1}[tc.warm]; hits != wantHits || misses != 1-wantHits {
			t.Errorf("%s: %d hits / %d misses, want %d / %d", name, hits, misses, wantHits, 1-wantHits)
		}
	}
}

// TestSolveDeclaredLengthNotReserved: a request that declares a body as
// large as -max-body but sends two bytes gets a 400, and the server does
// not reserve the declared size before the bytes arrive.
func TestSolveDeclaredLengthNotReserved(t *testing.T) {
	s, h := newTestServer(t, nil)
	req := httptest.NewRequest("POST", "/solve", strings.NewReader("{}"))
	req.ContentLength = s.maxBody
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d %q, want 400", rec.Code, rec.Body.String())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*maxBodyPresize {
		t.Errorf("request allocated %d MB for a 2-byte body declaring %d MB",
			got>>20, s.maxBody>>20)
	}
}

// postAs POSTs body to url under tenant and returns the status with the
// response body.
func postAs(t *testing.T, url, tenant string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(fleet.TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// cacheDelta runs f and returns the prepare-cache hits and misses it added.
func cacheDelta(s *server, f func()) (hits, misses int64) {
	before := s.pipe.Cache.Stats()
	f()
	after := s.pipe.Cache.Stats()
	return after.Hits - before.Hits, after.Misses - before.Misses
}

// decodeSpans returns the parsed attribute of each decode span the trace of
// request id holds, in recording order. Each span, parsed or not, must
// record the body's size, size bytes, so decode MB/s reads off the trace.
func decodeSpans(t *testing.T, s *server, id string, size int) []string {
	t.Helper()
	tr, ok := s.trace.Get(id)
	if !ok {
		t.Fatalf("no trace for request %s", id)
	}
	var parsed []string
	for _, sp := range tr.Spans {
		if sp.Name == "decode" {
			parsed = append(parsed, sp.Attrs["parsed"])
			if got := sp.Attrs["bytes"]; got != strconv.Itoa(size) {
				t.Errorf("decode span parsed=%s records bytes=%q, want %d", sp.Attrs["parsed"], got, size)
			}
		}
	}
	return parsed
}

// TestDigestFirstWarmMatchesCold is the conformance test of the digest-first
// pipeline on a P-1K-shaped archive: one cold Prepare, then the five-rung
// budget ladder as cache hits that never parse the body, each answer equal
// bit for bit to a cold solve of the same rung. Around it, every request the
// reordering could have let through still gets the answer it got before.
func TestDigestFirstWarmMatchesCold(t *testing.T) {
	s, srv := jobsTestServer(t, serverConfig{Workers: 2})
	ds, body := p1kArchive()
	total := ds.Instance.TotalCost()
	solve := func(tenant, query string) (solveResponse, string) {
		t.Helper()
		code, out := postAs(t, srv.URL+"/solve?tau=0.4"+query, tenant, body)
		if code != http.StatusOK {
			t.Fatalf("tenant %s %s: %d %s", tenant, query, code, out)
		}
		var r solveResponse
		if err := json.Unmarshal(out, &r); err != nil {
			t.Fatal(err)
		}
		return r, r.RequestID
	}
	rungQuery := func(frac float64) string {
		return "&budget=" + strconv.FormatFloat(frac*total, 'f', -1, 64)
	}

	// Warm the archive once, cold.
	ladder := []float64{0.05, 0.10, 0.15, 0.20, 0.30}
	var id string
	if h, m := cacheDelta(s, func() { _, id = solve("warm", rungQuery(ladder[0])) }); h != 0 || m != 1 {
		t.Fatalf("first solve: %d hits / %d misses, want a miss", h, m)
	}
	if got := decodeSpans(t, s, id, len(body)); len(got) != 2 || got[0] != "false" || got[1] != "true" {
		t.Errorf("cold solve decode spans parsed=%v, want [false true]", got)
	}
	for i, frac := range ladder {
		cold, _ := solve(fmt.Sprintf("cold-%d", i), rungQuery(frac))
		var hot solveResponse
		if h, m := cacheDelta(s, func() { hot, id = solve("warm", rungQuery(frac)) }); h != 1 || m != 0 {
			t.Fatalf("rung %g: %d hits / %d misses, want a hit", frac, h, m)
		}
		if got := decodeSpans(t, s, id, len(body)); len(got) != 1 || got[0] != "false" {
			t.Errorf("rung %g: hit decode spans parsed=%v, want [false]", frac, got)
		}
		same := fmt.Sprint(hot.Retain) == fmt.Sprint(cold.Retain) &&
			fmt.Sprint(hot.Archive) == fmt.Sprint(cold.Archive)
		for _, f := range [][2]float64{
			{hot.Score, cold.Score}, {hot.Cost, cold.Cost},
			{hot.Budget, cold.Budget}, {hot.OnlineBound, cold.OnlineBound},
		} {
			same = same && math.Float64bits(f[0]) == math.Float64bits(f[1])
		}
		if !same {
			t.Errorf("rung %g: hit %+v differs from cold %+v", frac, hot, cold)
		}
	}

	// No ?budget: the body is parsed up front, the probe still hits, and the
	// answer carries the body's own budget.
	var noBudget solveResponse
	if h, _ := cacheDelta(s, func() { noBudget, id = solve("warm", "") }); h != 1 {
		t.Errorf("no-budget solve missed the cache")
	}
	if noBudget.Budget != ds.Instance.Budget {
		t.Errorf("no-budget answer budget %g, want the body's %g", noBudget.Budget, ds.Instance.Budget)
	}
	if got := decodeSpans(t, s, id, len(body)); len(got) != 1 || got[0] != "true" {
		t.Errorf("no-budget decode spans parsed=%v, want [true]", got)
	}

	// The same bytes under a second tenant are a miss and are parsed.
	if h, m := cacheDelta(s, func() { _, id = solve("second", rungQuery(ladder[1])) }); h != 0 || m != 1 {
		t.Errorf("second tenant: %d hits / %d misses, want a miss", h, m)
	}
	if got := decodeSpans(t, s, id, len(body)); len(got) != 2 || got[1] != "true" {
		t.Errorf("second tenant decode spans parsed=%v, want a parse", got)
	}

	// A malformed body after a valid one is still a 400, with or without a
	// budget, and lsh=1 on a body without vectors is a 400 too.
	bad := append([]byte(nil), body[:len(body)/2]...)
	for _, q := range []string{"?tau=0.4" + rungQuery(ladder[0]), "?tau=0.4"} {
		if code, out := postAs(t, srv.URL+"/solve"+q, "warm", bad); code != http.StatusBadRequest ||
			!strings.Contains(string(out), "par: decoding instance") {
			t.Errorf("truncated body %s: %d %q, want a 400 decode error", q, code, out)
		}
	}
	code, out := postAs(t, srv.URL+"/solve?lsh=1&tau=0.4"+rungQuery(ladder[0]), "warm", body)
	if code != http.StatusBadRequest || !strings.Contains(string(out), "requires per-subset context vectors") {
		t.Errorf("lsh=1 without vectors: %d %q, want a 400", code, out)
	}
}
