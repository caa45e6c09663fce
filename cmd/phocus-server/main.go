// Command phocus-server exposes the PHOcus Solver over HTTP — the Go
// counterpart of the paper's Python/Flask solver service (Section 5.1).
//
//	POST   /solve?algo=celf&tau=0.75&budget=5e6   body: instance JSON (synchronous)
//	POST   /instances/{fp}/delta                  body: delta JSON — incremental churn on a prepared instance
//	POST   /jobs?algo=...&tau=...                 body: instance JSON → 202 + job ID (async)
//	POST   /jobs?kind=session&fp=...              body: delta JSON → 202 (async delta batch)
//	POST   /jobs?kind=retention&every=...&runs=N  body: instance JSON → recurring re-solve chain
//	GET    /jobs                                  paginated job listing
//	GET    /jobs/{id}                             job status, queue position, timings
//	GET    /jobs/{id}/result                      solve result once the job is done
//	DELETE /jobs/{id}                             cancel (queued or mid-run)
//	GET    /healthz                               liveness
//	GET    /readyz                                readiness (503 until WAL replay, and during drain)
//	GET    /metrics                               Prometheus text exposition
//	GET    /debug/vars                            JSON metrics snapshot (p50/p95/p99 summaries)
//	GET    /debug/pprof/                          runtime profiles (only with -pprof)
//
// Large solves should go through the async job API: POST /jobs answers 202
// immediately, the solve runs on the internal/jobs scheduler (durable
// write-ahead log under -data-dir, so admitted jobs survive a crash), and
// admission control answers 429 + Retry-After once the queue caps are hit.
// The synchronous /solve path shares the same admission budget: when the
// scheduler is saturated it too answers 429 instead of queueing unboundedly.
//
// The /solve response is a JSON document listing the photos to retain and
// archive with the achieved score, the online optimality certificate, the
// request ID (also echoed in the X-Request-ID header and on every span log
// line), and the solver's work stats. Every request stage (decode →
// sparsify → solve → encode) is traced as a span in the structured log.
//
// All solve and delta traffic flows through one phocus.Pipeline (the staged
// engine's Prepare + Run). Prepared instances are cached in an LRU keyed by the content
// fingerprint of the request body plus the preparation parameters (tau,
// lsh, seed) — the run budget is excluded, so a budget sweep over one
// archive sparsifies exactly once and every warm request goes straight to
// the solver. Cache behaviour is visible on /metrics as
// phocus_prepare_cache_{hits,misses,evictions}_total; solves stopped
// mid-run by client disconnects or -solve-timeout count into
// phocus_solve_canceled_total.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"phocus/internal/fleet"
	"phocus/internal/jobs"
	"phocus/internal/obs"
	"phocus/internal/par"
	"phocus/internal/phocus"
	"phocus/internal/pool"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxBody := flag.Int64("max-body", 256<<20, "maximum /solve request body size in bytes")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	workers := flag.Int("workers", 0, "solve pipeline worker-pool size per request (≤ 0 means one per CPU, 1 forces the sequential path)")
	exactMaxNodes := flag.Int64("exact-max-nodes", 50_000_000, "node budget for algo=exact branch-and-bound (≤ 0 = unlimited)")
	solveTimeout := flag.Duration("solve-timeout", 0, "per-request solve deadline (0 = none); expired solves stop mid-run and return 503")
	cacheEntries := flag.Int("prepare-cache-entries", 64, "prepared-instance cache entry bound (≤ 0 = unbounded; at least one of the two bounds must be positive)")
	cacheBytes := flag.Int64("prepare-cache-bytes", 1<<30, "prepared-instance cache byte bound")
	dataDir := flag.String("data-dir", "", "durable job-store directory for the async /jobs API (empty = in-memory jobs, no crash recovery)")
	snapshotDir := flag.String("snapshot-dir", "", "prepared-instance snapshot directory for warm restarts (empty = snapshots off)")
	jobWorkers := flag.Int("job-workers", 0, "async job scheduler worker count (0 = the -workers value)")
	queueDepth := flag.Int("queue-depth", 32, "job queue depth cap; over it submissions get 429 (0 = unbounded)")
	queueBytes := flag.Int64("queue-bytes", 1<<30, "job queue total payload byte cap (0 = unbounded)")
	jobRetries := flag.Int("job-retries", 3, "max runner attempts per job for transient failures")
	drainTimeout := flag.Duration("drain-timeout", 20*time.Second, "graceful-shutdown budget for running jobs before they are checkpointed back to the queue")
	sloSolveP95 := flag.Duration("slo-solve-p95", 2*time.Second, "SLO: solve-stage p95 latency objective")
	sloJobWaitP99 := flag.Duration("slo-job-wait-p99", 30*time.Second, "SLO: async job queue-wait p99 objective")
	sloHTTPP99 := flag.Duration("slo-http-p99", 5*time.Second, "SLO: whole-request HTTP p99 latency objective")
	slo429Rate := flag.Float64("slo-429-rate", 0.05, "SLO: admitted-traffic 429-rate objective (fraction of POST /solve + POST /jobs)")
	sloWindow := flag.Duration("slo-window", 30*time.Second, "SLO evaluation window granularity (long horizon = 20 windows, short = 4)")
	traceCapacity := flag.Int("trace-capacity", obs.DefaultTraceCapacity, "retained request/job trace timelines for GET /jobs/{id}/trace")
	shardSpec := flag.String("shard", "", "this process's shard identity, \"i/N\" or \"i\" (empty = standalone, no fleet)")
	peers := flag.String("peers", "", "comma-separated shard base URLs ordered by shard index (requires -shard)")
	shardMapFile := flag.String("shard-map", "", "shard map file: one shard base URL per line, ordered by index (requires -shard; alternative to -peers)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate in requests/second across /solve, /jobs and delta submissions (0 = no per-tenant quota)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant admission burst (0 = ceil of -tenant-rate)")
	flag.Parse()
	logger, err := newLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phocus-server:", err)
		os.Exit(1)
	}

	s, err := newServer(logger, serverConfig{
		MaxBody:       *maxBody,
		Workers:       *workers,
		ExactMaxNodes: *exactMaxNodes,
		SolveTimeout:  *solveTimeout,
		CacheEntries:  *cacheEntries,
		CacheBytes:    *cacheBytes,
		DataDir:       *dataDir,
		SnapshotDir:   *snapshotDir,
		JobWorkers:    *jobWorkers,
		QueueDepth:    *queueDepth,
		QueueBytes:    *queueBytes,
		JobRetries:    *jobRetries,
		SLOSolveP95:   *sloSolveP95,
		SLOJobWaitP99: *sloJobWaitP99,
		SLOHTTPP99:    *sloHTTPP99,
		SLO429Rate:    *slo429Rate,
		SLOWindow:     *sloWindow,
		TraceCapacity: *traceCapacity,
		ShardSpec:     *shardSpec,
		Peers:         *peers,
		ShardMapFile:  *shardMapFile,
		TenantRate:    *tenantRate,
		TenantBurst:   *tenantBurst,
	})
	if err != nil {
		logger.Error("startup", "err", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.telemetry(s.mux(*pprofOn)),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute, // large instances upload slowly
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       time.Minute,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		// Flip /readyz to 503 first so load balancers stop routing, then
		// stop HTTP intake, then drain the job scheduler: running jobs get
		// -drain-timeout to finish before they are checkpointed back to
		// queued and the WAL flushes a final snapshot.
		s.jobs.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer dcancel()
		if err := s.jobs.Close(dctx); err != nil {
			logger.Error("jobs shutdown", "err", err)
		}
	}()

	logger.Info("phocus-server listening", "addr", *addr, "max_body", *maxBody, "pprof", *pprofOn,
		"workers", s.workers, "exact_max_nodes", s.pipe.ExactMaxNodes, "solve_timeout", s.solveTimeout,
		"data_dir", *dataDir, "snapshot_dir", *snapshotDir, "queue_depth", *queueDepth)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	<-done
}

// serverConfig carries the tunables newServer plumbs into the handlers.
type serverConfig struct {
	// MaxBody caps the /solve request body size in bytes.
	MaxBody int64
	// Workers bounds per-request pipeline parallelism (≤ 0 = one per CPU).
	Workers int
	// ExactMaxNodes caps algo=exact's branch-and-bound (≤ 0 = unlimited).
	ExactMaxNodes int64
	// SolveTimeout, when positive, deadlines each request's solve stage.
	SolveTimeout time.Duration
	// CacheEntries / CacheBytes bound the prepared-instance LRU; a bound
	// ≤ 0 is unbounded, and at least one must be positive.
	CacheEntries int
	CacheBytes   int64
	// DataDir is the async job store's durable directory ("" = in-memory).
	DataDir string
	// SnapshotDir is the prepared-instance snapshot directory; non-empty
	// enables write-back of cold Prepares and warm-fill of the prepare
	// cache at startup ("" = snapshots off).
	SnapshotDir string
	// JobWorkers sizes the async scheduler's worker pool (0 = Workers).
	JobWorkers int
	// QueueDepth / QueueBytes bound job admission (≤ 0 = unbounded).
	QueueDepth int
	QueueBytes int64
	// JobRetries caps runner attempts per job (0 = jobs default).
	JobRetries int
	// JobStoreNoSync skips the per-append WAL fsync (tests/benchmarks).
	JobStoreNoSync bool
	// SLOSolveP95 / SLOJobWaitP99 / SLOHTTPP99 / SLO429Rate are the SLO
	// objective thresholds (≤ 0 picks the flag defaults).
	SLOSolveP95   time.Duration
	SLOJobWaitP99 time.Duration
	SLOHTTPP99    time.Duration
	SLO429Rate    float64
	// SLOWindow is the sliding-window granularity (≤ 0 = 30s).
	SLOWindow time.Duration
	// TraceCapacity bounds retained trace timelines (≤ 0 = obs default).
	TraceCapacity int
	// ShardSpec ("i/N" or "i") plus Peers (CSV of shard URLs) or
	// ShardMapFile configure fleet membership; all empty = standalone.
	ShardSpec    string
	Peers        string
	ShardMapFile string
	// TenantRate / TenantBurst shape the per-tenant admission token bucket
	// (rate ≤ 0 = no per-tenant quota).
	TenantRate  float64
	TenantBurst int
}

// server bundles the handler dependencies: logger, metrics registry,
// request limits, and the solve pipeline.
type server struct {
	logger       *slog.Logger
	reg          *obs.Registry
	slo          *obs.SLOTracker
	trace        *obs.TraceStore
	maxBody      int64
	workers      int
	solveTimeout time.Duration
	pipe         *phocus.Pipeline
	jobs         *jobs.Service
	queueDepth   int
	// snapWarmed flips once the startup warm-fill of the prepare cache has
	// finished (immediately when snapshots are off); /readyz reports 503
	// until then so a restarted replica only takes traffic warm.
	snapWarmed atomic.Bool
	// shards is the fleet topology this process serves in (nil =
	// standalone); quota is the per-tenant admission limiter (nil = off);
	// tenantLabels bounds tenant metric-label cardinality.
	shards       *fleet.ShardMap
	quota        *fleet.Quota
	tenantLabels *fleet.LabelGuard
}

// buildShardMap resolves the fleet flags into a ShardMap (nil when all are
// empty — standalone). -shard is required with either peer source; when the
// spec carries "/N" the size must match the list.
func buildShardMap(spec, peersCSV, mapFile string) (*fleet.ShardMap, error) {
	if spec == "" && peersCSV == "" && mapFile == "" {
		return nil, nil
	}
	if spec == "" {
		return nil, fmt.Errorf("-peers/-shard-map need -shard to name this process's index")
	}
	self, n, err := fleet.ParseShardSpec(spec)
	if err != nil {
		return nil, err
	}
	var urls []string
	switch {
	case peersCSV != "" && mapFile != "":
		return nil, fmt.Errorf("-peers and -shard-map are mutually exclusive")
	case peersCSV != "":
		urls, err = fleet.SplitPeers(peersCSV)
	case mapFile != "":
		urls, err = fleet.LoadShardMap(mapFile)
	default:
		return nil, fmt.Errorf("-shard %q needs -peers or -shard-map to name the fleet", spec)
	}
	if err != nil {
		return nil, err
	}
	if n != 0 && n != len(urls) {
		return nil, fmt.Errorf("-shard %q names %d shards but the peer list has %d", spec, n, len(urls))
	}
	return fleet.NewShardMap(self, urls)
}

// newLogger builds the process logger in the requested format.
func newLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q: want text or json", format)
}

func newServer(logger *slog.Logger, cfg serverConfig) (*server, error) {
	if cfg.CacheEntries <= 0 && cfg.CacheBytes <= 0 {
		return nil, errors.New("-prepare-cache-entries and -prepare-cache-bytes are both unbounded: set at least one positive bound")
	}
	s := &server{
		logger:       logger,
		reg:          obs.NewRegistry(),
		maxBody:      cfg.MaxBody,
		workers:      pool.Resolve(cfg.Workers),
		solveTimeout: cfg.SolveTimeout,
		queueDepth:   cfg.QueueDepth,
	}
	s.reg.Gauge("phocus_workers").Set(float64(s.workers))

	// Fleet membership: -shard i/N with -peers (or -shard-map) pins this
	// process's slot in the static topology; tenant ownership checks and the
	// X-Phocus-Shard header key off it. All-empty means standalone.
	shards, err := buildShardMap(cfg.ShardSpec, cfg.Peers, cfg.ShardMapFile)
	if err != nil {
		return nil, err
	}
	s.shards = shards
	s.quota = fleet.NewQuota(cfg.TenantRate, cfg.TenantBurst)
	s.tenantLabels = fleet.NewLabelGuard(0)
	if s.shards != nil {
		s.reg.Gauge("phocus_shard_index").Set(float64(s.shards.Self))
		s.reg.Gauge("phocus_shard_count").Set(float64(s.shards.N()))
	}

	// SLO engine: sliding-window series fed by the request path and the job
	// scheduler, evaluated on GET /slo and mirrored into /metrics gauges.
	if cfg.SLOSolveP95 <= 0 {
		cfg.SLOSolveP95 = 2 * time.Second
	}
	if cfg.SLOJobWaitP99 <= 0 {
		cfg.SLOJobWaitP99 = 30 * time.Second
	}
	if cfg.SLOHTTPP99 <= 0 {
		cfg.SLOHTTPP99 = 5 * time.Second
	}
	if cfg.SLO429Rate <= 0 || cfg.SLO429Rate > 1 {
		cfg.SLO429Rate = 0.05
	}
	s.slo = obs.NewSLOTracker(obs.SLOTrackerOptions{WindowDur: cfg.SLOWindow})
	s.slo.AddLatencyObjective("solve_p95", obs.SLOSolveLatency, 0.95, cfg.SLOSolveP95)
	s.slo.AddLatencyObjective("http_p99", obs.SLOHTTPLatency, 0.99, cfg.SLOHTTPP99)
	s.slo.AddLatencyObjective("job_wait_p99", obs.SLOJobWait, 0.99, cfg.SLOJobWaitP99)
	s.slo.AddRateObjective("reject_429_rate", obs.SLORejectRate, cfg.SLO429Rate)
	s.trace = obs.NewTraceStore(cfg.TraceCapacity)

	// The pipeline and its snapshot store open before the job service:
	// resumed jobs go straight through the pipeline.
	s.pipe = &phocus.Pipeline{
		Cache:   phocus.NewPreparedCache(cfg.CacheEntries, cfg.CacheBytes),
		Metrics: s.reg, SLO: s.slo, Logger: logger,
		Workers: s.workers, ExactMaxNodes: max(cfg.ExactMaxNodes, 0),
	}
	if cfg.SnapshotDir != "" {
		if s.pipe.Snapshots, err = phocus.OpenSnapshotStore(cfg.SnapshotDir); err != nil {
			return nil, err
		}
	}

	// The job service opens last: its workers may immediately resume
	// recovered jobs through s.runJob, so the server must be fully wired.
	jobWorkers := cfg.JobWorkers
	if jobWorkers <= 0 {
		jobWorkers = s.workers
	}
	svc, _, err := jobs.NewService(jobs.Config{
		Dir:         cfg.DataDir,
		Workers:     jobWorkers,
		QueueDepth:  cfg.QueueDepth,
		QueueBytes:  cfg.QueueBytes,
		MaxAttempts: cfg.JobRetries,
		JobTimeout:  cfg.SolveTimeout,
		Seed:        1,
		Metrics:     s.reg,
		SLO:         s.slo,
		Trace:       s.trace,
		Logger:      logger,
		Store:       jobs.StoreOptions{NoSync: cfg.JobStoreNoSync},
	}, s.runJob)
	if err != nil {
		return nil, err
	}
	s.jobs = svc

	// Warm-fill runs in the background so startup stays fast; /readyz keeps
	// answering 503 until the persisted snapshots are back in the cache.
	if s.pipe.Snapshots != nil {
		go func() {
			s.pipe.WarmFill()
			s.snapWarmed.Store(true)
		}()
	} else {
		s.snapWarmed.Store(true)
	}
	return s, nil
}

// mux builds the HTTP API.
func (s *server) mux(pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /instances/{fp}/delta", s.handleDelta)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Refresh the phocus_slo_* gauges on every scrape so /metrics and
		// /slo always tell the same story.
		s.slo.Export(s.reg)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := s.reg.WritePrometheus(w); err != nil {
			s.logger.Error("write metrics", "err", err)
		}
	})
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.reg.WriteJSON(w); err != nil {
			s.logger.Error("write vars", "err", err)
		}
	})
	if pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// telemetry wraps the mux with request IDs, per-route metrics, and the
// per-request structured log line. The request ID comes from the client's
// X-Request-ID header when present (so IDs propagate across services) and
// is always echoed back on the response.
func (s *server) telemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		if s.shards != nil {
			// Every response names the shard that served it plus the shard-map
			// fingerprint, so a misrouted or stale-map client is diagnosable
			// from the response alone.
			w.Header().Set(fleet.ShardHeader, s.shards.HeaderValue())
		}
		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx = obs.WithLogger(ctx, s.logger.With("req_id", reqID))
		ctx = obs.WithTraceStore(ctx, s.trace)

		lw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(lw, r.WithContext(ctx))

		route := routeLabel(r.URL.Path)
		elapsed := time.Since(start)
		s.reg.Counter("phocus_http_requests_total",
			"route", route, "class", statusClass(lw.status)).Inc()
		s.reg.Histogram("phocus_http_request_seconds", nil, "route", route).
			Observe(elapsed.Seconds())
		s.slo.Latency(obs.SLOHTTPLatency).Observe(elapsed.Seconds())
		// The 429-rate objective covers exactly the admission-controlled
		// surface: solve and job submissions.
		if r.Method == http.MethodPost && (route == "/solve" || route == "/jobs") {
			s.slo.Rate(obs.SLORejectRate).Observe(lw.status == http.StatusTooManyRequests)
		}
		// Tenant-keyed writes also feed the per-tenant series (through the
		// cardinality guard); malformed tenants were already 400ed and are
		// not worth a label.
		if r.Method == http.MethodPost &&
			(route == "/solve" || route == "/jobs" || route == "/instances/{fp}/delta") {
			if tenant, terr := fleet.TenantFromRequest(r); terr == nil {
				obs.RecordTenantRequest(s.reg, s.tenantLabel(tenant), route, elapsed)
			}
		}
		s.logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", lw.status,
			"req_id", reqID, "duration", elapsed.Round(time.Millisecond))
	})
}

// routeLabel maps a request path to a bounded metric label (unknown paths
// collapse into one series so clients cannot explode label cardinality).
func routeLabel(path string) string {
	switch path {
	case "/solve", "/healthz", "/readyz", "/metrics", "/debug/vars", "/jobs", "/slo", "/stats":
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof/") {
		return "/debug/pprof/"
	}
	if strings.HasPrefix(path, "/jobs/") {
		return "/jobs/{id}"
	}
	if strings.HasPrefix(path, "/instances/") {
		return "/instances/{fp}/delta"
	}
	return "other"
}

// statusClass buckets an HTTP status ("2xx", "4xx", ...).
func statusClass(status int) string {
	return fmt.Sprintf("%dxx", status/100)
}

// statusWriter captures the response status for the request log and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// Flush passes streaming flushes through to the underlying writer so
// wrapping does not silently disable http.Flusher.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// solveStats is the per-request solver work report in the wire format.
// TracePrefix is the number of the winning CELF pass's selections replayed
// from the Prepared's trace: 0, and omitted, on a full pass. BoundMS is the
// online bound's share of ElapsedMS.
type solveStats struct {
	GainEvals   int64   `json:"gain_evals,omitempty"`
	PQPops      int64   `json:"pq_pops,omitempty"`
	Winner      string  `json:"winner,omitempty"`
	TracePrefix int     `json:"trace_prefix,omitempty"`
	Seeds       int64   `json:"seeds,omitempty"`
	BoundMS     float64 `json:"bound_ms,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// solveResponse is the wire format of a solver result.
type solveResponse struct {
	RequestID string `json:"request_id"`
	// Fingerprint identifies the prepared instance the solve ran on; it is
	// the handle POST /instances/{fp}/delta and kind=session jobs take.
	Fingerprint string        `json:"fingerprint,omitempty"`
	Algorithm   string        `json:"algorithm"`
	Retain      []par.PhotoID `json:"retain"`
	Archive     []par.PhotoID `json:"archive"`
	Score       float64       `json:"score"`
	Cost        float64       `json:"cost"`
	Budget      float64       `json:"budget"`
	OnlineBound float64       `json:"online_bound"`
	Stats       *solveStats   `json:"stats,omitempty"`
}

// parseSolveParams validates the /solve query string into a solve request's
// parameters. Every rejection uses the same "invalid <param> %q: want ..."
// shape so clients get consistent 400 messages.
func parseSolveParams(q url.Values) (phocus.SolveRequest, error) {
	var p phocus.SolveRequest
	if b := q.Get("budget"); b != "" {
		v, err := strconv.ParseFloat(b, 64)
		if err != nil || v <= 0 {
			return p, fmt.Errorf("invalid budget %q: want a positive number of bytes", b)
		}
		p.Budget = v
	}
	if t := q.Get("tau"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || v < 0 || v > 1 {
			return p, fmt.Errorf("invalid tau %q: want a number in [0,1]", t)
		}
		p.Tau = v
	}
	algo, err := phocus.ParseAlgorithm(q.Get("algo"))
	if err != nil {
		return p, err
	}
	p.Algorithm = algo
	switch l := q.Get("lsh"); l {
	case "", "0":
	case "1":
		p.LSH = true
	default:
		return p, fmt.Errorf("invalid lsh %q: want 0 or 1", l)
	}
	if sd := q.Get("seed"); sd != "" {
		v, err := strconv.ParseInt(sd, 10, 64)
		if err != nil {
			return p, fmt.Errorf("invalid seed %q: want an integer", sd)
		}
		p.Seed = v
	}
	if p.LSH && p.Tau == 0 {
		return p, fmt.Errorf("invalid lsh %q: requires tau > 0", q.Get("lsh"))
	}
	return p, nil
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	logger := obs.Logger(ctx)

	req, err := parseSolveParams(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tenant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}

	// Synchronous solves share the async scheduler's admission budget: the
	// request must hold a solver slot for its whole pipeline, and once the
	// wait line reaches the queue-depth cap it gets 429 like an over-cap
	// job submission would — not an unbounded queue on the worker pool.
	release, err := s.admitSync(ctx)
	if err != nil {
		if ctx.Err() != nil {
			// The client hung up while waiting for a slot; nobody to answer.
			s.reg.Counter("phocus_http_canceled_total", "route", "/solve").Inc()
			logger.Warn("client canceled while waiting for a solve slot", "err", err)
			return
		}
		obs.RecordJobRejected(s.reg)
		s.rejectSaturated(w, err)
		return
	}
	defer release()

	// The body read belongs to the decode stage: its span starts here.
	req.Tenant, req.Start, req.Timeout = tenant, time.Now(), s.solveTimeout
	req.Body, err = readBody(w, r, s.maxBody)
	var a *phocus.Answer
	if err == nil {
		a, err = s.pipe.Solve(ctx, req)
	}
	if err != nil {
		s.fail(w, r, err)
		return
	}

	_, encodeSpan := obs.StartSpan(ctx, "encode")
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(newSolveResponse(ctx, a)); err != nil {
		s.reg.Counter("phocus_http_encode_errors_total").Inc()
		logger.Error("encode response", "err", err)
	}
	encodeSpan.End()
}

// maxBodyPresize caps how much of a declared Content-Length readBody
// reserves before the bytes arrive; larger bodies grow by doubling.
const maxBodyPresize = 16 << 20

// readBody reads the whole request body under the -max-body cap. A
// Content-Length within the cap sizes the buffer up front, up to
// maxBodyPresize, so a typical body lands in one allocation while a client
// that only declares a large body cannot make the server reserve it.
// Past the cap the error wraps *http.MaxBytesError (413); any other read
// error is invalid input (400).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= limit {
		// ReadFrom grows the buffer unless MinRead bytes are free for the
		// read that returns EOF.
		buf.Grow(int(min(r.ContentLength, maxBodyPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, phocus.Invalid(fmt.Errorf("reading request body: %w", err))
	}
	return buf.Bytes(), nil
}

// fail answers a request that readBody or the pipeline failed: the one map
// from their errors to HTTP statuses. Context errors are a client that went
// away, which gets no answer, or the solve deadline (503).
func (s *server) fail(w http.ResponseWriter, r *http.Request, err error) {
	var tooBig *http.MaxBytesError
	msg, status := err.Error(), http.StatusInternalServerError
	switch {
	case errors.As(err, &tooBig):
		msg, status = fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge
	case errors.Is(err, phocus.ErrInvalidInput):
		status = http.StatusBadRequest
	case errors.Is(err, phocus.ErrUnknownFingerprint):
		status = http.StatusNotFound
	case errors.Is(err, phocus.ErrDeltaLSH):
		status = http.StatusConflict
	case r.Context().Err() != nil:
		s.reg.Counter("phocus_http_canceled_total", "route", routeLabel(r.URL.Path)).Inc()
		obs.Logger(r.Context()).Warn("client canceled", "path", r.URL.Path, "err", err)
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		msg, status = "solve timed out", http.StatusServiceUnavailable
	}
	http.Error(w, msg, status)
}

// newSolveResponse renders a pipeline answer in the wire format.
func newSolveResponse(ctx context.Context, a *phocus.Answer) *solveResponse {
	archive := a.Archived
	if archive == nil {
		archive = []par.PhotoID{}
	}
	return &solveResponse{
		RequestID:   obs.RequestID(ctx),
		Fingerprint: a.Fingerprint,
		Algorithm:   a.Algorithm,
		Retain:      a.Solution.Photos,
		Archive:     archive,
		Score:       a.Solution.Score,
		Cost:        a.Solution.Cost,
		Budget:      a.Budget,
		OnlineBound: a.OnlineBound,
		Stats: &solveStats{GainEvals: a.GainEvals, PQPops: a.PQPops, Winner: a.Winner, TracePrefix: a.TracePrefix,
			Seeds: a.Seeds, BoundMS: obs.DurMS(a.BoundTime), ElapsedMS: obs.DurMS(a.Elapsed)},
	}
}
