// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload for a fixed time from a seed and prints its
// metrics, with the last line of standard output a JSON object:
//
//	bash perfbench/run.sh --workload serve_sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics a user of the system
// sees (set-up time, p90 latency, solution quality, peak memory; p50 and
// throughput are printed but left off the result line); with --trace 1 it
// replays a fixed op sequence with spans around
// each module's public functions and reports per-layer metrics. Every op's
// answer passes a correctness gate outside the timed region, and each
// workload checks from the program's own counters that it exercised what it
// claims to. --steady N runs every workload N times in two batches and
// prints the spread behind the bounds in BENCHMARK.json. README.md describes
// the workloads and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it; the bool is --trace.
var workloads = map[string]func(r *run, traced bool) error{
	"serve_sweep":  serveSweep,
	"serve_ingest": serveIngest,
	"engine_sweep": engineSweep,
	"engine_churn": engineChurn,
}

// workloadOrder is the order --steady and the usage text list workloads in.
var workloadOrder = []string{"serve_sweep", "serve_ingest", "engine_sweep", "engine_churn"}

// endToEnd lists the metrics a --trace 0 run reports on its result line, with
// their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p90_ms", "ms"},
	{"quality_ratio", "ratio"},
	{"rss_mb", "MB"},
}

// infoOnly lists the end-to-end metrics a --trace 0 run prints but leaves off
// its result line. On a shared 2-vCPU VM the machine alternates, over tens of
// seconds, between a fast mode and one ~1.8× slower for the decode-heavy
// serve ops; the median and the mean move with the share of ops in each mode
// and spread 10–30% between runs, while p90 sits in the slow mode and spreads
// 3–12%. README.md has the measurements.
var infoOnly = []metricDef{
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the metrics a --trace 1 run reports, with their units. A
// layer a workload never calls reports 0 (1 for live_fraction); README.md
// says which workload each one is measured on.
var perLayer = []metricDef{
	{"par.decode_ms", "ms"},
	{"par.decode_mb_per_s", "MB/s"},
	{"par.decode_alloc_mb", "MB"},
	{"par.finalize_ms", "ms"},
	{"par.kernel_compile_ms", "ms"},
	{"par.kernel_mb", "MB"},
	{"sparsify.ms", "ms"},
	{"sparsify.keep_ratio", "ratio"},
	{"phocus.cache_probe_ms", "ms"},
	{"phocus.cache_hit_ratio", "ratio"},
	{"phocus.cache_evictions_per_op", "count/op"},
	{"phocus.prepared_mb", "MB"},
	{"phocus.prepare_ms", "ms"},
	{"phocus.snapshot_save_ms", "ms"},
	{"phocus.snapshot_mb", "MB"},
	{"phocus.snapshot_load_ms", "ms"},
	{"phocus.run_ms", "ms"},
	{"phocus.rescore_bound_ms", "ms"},
	{"phocus.run_allocs", "count"},
	{"phocus.delta_apply_ms", "ms"},
	{"phocus.compactions_per_run", "count"},
	{"phocus.live_fraction", "ratio"},
	{"celf.solve_ms", "ms"},
	{"celf.gain_evals", "count"},
	{"celf.pq_pops", "count"},
	{"celf.evals_per_ms", "1/ms"},
	{"serve.encode_ms", "ms"},
	{"serve.other_ms", "ms"},
	{"trace.uncovered_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

// run is one workload run: its settings and what it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	dir      string // scratch directory, removed when the run ends
	server   string // phocus-server binary
	out      io.Writer

	gate      *gate
	setup     []float64     // wall time of each set-up, s
	lat       []float64     // timed-op latencies, ms
	wall      time.Duration // timed wall time
	attempted int
	failed    int
	problems  []string
	rssMB     float64
	layer     map[string]float64 // --trace 1 metrics
}

// problem records a failed op or a failed self-validation.
func (r *run) problem(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	seed := flag.Int64("seed", 1, "input seed; archives, budgets and churn batches are pure functions of it")
	seconds := flag.Int("seconds", 20, "timed duration of a --trace 0 run")
	traceFlag := flag.Int("trace", 0, "1 replays a fixed op sequence with per-layer spans instead of timing end to end")
	steadyRuns := flag.Int("steady", 0, "run every workload (or --workload) this many times in each of two batches and report the spread")
	server := flag.String("server", ".bench_build/phocus-server", "phocus-server binary")
	work := flag.String("workdir", ".bench_build", "directory for run scratch files and span dumps")
	flag.Parse()

	if *steadyRuns > 0 {
		names := workloadOrder
		if *workload != "" {
			names = strings.Split(*workload, ",")
		}
		if err := steady(os.Stdout, names, *steadyRuns, *seed, *seconds, *server, *work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds ≥ 1, --trace 0 or 1\n", strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	res, err := execute(drive, *workload, *seed, *seconds, *traceFlag == 1, *server, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload in a fresh scratch directory and assembles the
// result line.
func execute(drive func(*run, bool) error, workload string, seed int64, seconds int, traced bool, server, work string) (*result, error) {
	if _, err := os.Stat(server); err != nil {
		return nil, fmt.Errorf("phocus-server binary: %w (build it with perfbench/run.sh)", err)
	}
	server, err := filepath.Abs(server)
	if err != nil {
		return nil, err
	}
	// Earlier runs that were killed leave their scratch behind; serve_ingest
	// writes ~8 MB of snapshots per op, so sweep it before starting.
	runs := filepath.Join(work, "runs")
	if err := os.RemoveAll(runs); err != nil {
		return nil, err
	}
	dir := filepath.Join(runs, fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runs)

	r := &run{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		dir: dir, server: server, out: os.Stdout, gate: newGate(),
	}
	r.logf("perfbench %s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d %s",
		workload, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := drive(r, traced); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	for _, p := range append(r.problems, r.gate.failures...) {
		r.logf("FAILED: %s", p)
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no ops attempted", workload)
	}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{r.layer[m.name], m.unit}
			r.logf("  %-32s %14.4f %s", m.name, r.layer[m.name], m.unit)
		}
		return res, nil
	}
	values := map[string]float64{
		"setup_s":       median(r.setup),
		"p50_ms":        percentile(r.lat, 0.5),
		"p90_ms":        percentile(r.lat, 0.9),
		"ops_per_s":     float64(len(r.lat)) / r.wall.Seconds(),
		"quality_ratio": mean(r.gate.ratios),
		"rss_mb":        r.rssMB,
	}
	samples := map[string]int{
		"setup_s": len(r.setup), "p50_ms": len(r.lat), "p90_ms": len(r.lat), "ops_per_s": len(r.lat),
		"quality_ratio": len(r.gate.ratios), "rss_mb": 1,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		r.logf("  %-14s %14.4f %-5s (n=%d)", m.name, values[m.name], m.unit, samples[m.name])
	}
	for _, m := range infoOnly {
		r.logf("  %-14s %14.4f %-5s (n=%d, not on the result line)", m.name, values[m.name], m.unit, samples[m.name])
	}
	// error_rate is never a BENCHMARK.json metric (it is 0 on a correct run);
	// the result line carries it as failed/attempted.
	r.logf("  %-14s %14.4f %-5s (n=%d)", "error_rate", float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
	return res, nil
}
