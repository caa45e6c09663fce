// Command phocus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	phocus-bench -exp all -scale 0.2
//	phocus-bench -exp fig5a -scale 1 -v
//	phocus-bench -list
//
// Scale 1 reproduces the full Table 2 dataset sizes; smaller scales shrink
// every dataset proportionally, preserving the comparative shapes. Every
// parallel stage runs on GOMAXPROCS goroutines; set the GOMAXPROCS
// environment variable to bound them (GOMAXPROCS=1 runs sequentially).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"phocus/internal/experiments"
	"phocus/internal/metrics"
	"phocus/internal/obs"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale      = flag.Float64("scale", 0.2, "dataset scale in (0, 1]; 1 = paper-sized datasets")
		seed       = flag.Int64("seed", 0, "seed offset for all generators")
		tau        = flag.Float64("tau", 0.75, "sparsification threshold used by PHOcus runs")
		timeout    = flag.Duration("timeout", 0, "abort the whole run after this long; solves stop mid-run (0 = no deadline)")
		verbose    = flag.Bool("v", false, "log per-run progress to stderr")
		list       = flag.Bool("list", false, "list experiments and exit")
		html       = flag.String("html", "", "also write a standalone HTML report to this file")
		metricsOut = flag.Bool("metrics", true, "print the metrics-registry snapshot (Prometheus text) after the run")
		cpuprof    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		return
	}

	reg := obs.NewRegistry()
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Tau: *tau, Metrics: reg}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Context = ctx
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	var sections []metrics.Section
	run := func(name, desc string, r experiments.Runner) error {
		start := time.Now()
		var body strings.Builder
		out := io.Writer(os.Stdout)
		if *html != "" {
			out = io.MultiWriter(os.Stdout, &body)
		}
		if err := r(cfg, out); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)
		reg.Histogram("phocus_bench_experiment_seconds", nil, "exp", name).Observe(elapsed.Seconds())
		reg.Counter("phocus_bench_experiments_total").Inc()
		fmt.Printf("[%s done in %v]\n\n", name, elapsed.Round(time.Millisecond))
		if *html != "" {
			sections = append(sections, metrics.Section{ID: name, Title: desc, Body: body.String()})
		}
		return nil
	}

	fail := func(err error) {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "phocus-bench: -timeout %v exceeded, run aborted\n", *timeout)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			if err := run(e.Name, e.Desc, e.Run); err != nil {
				fail(err)
			}
		}
	} else {
		r := experiments.Find(*exp)
		if r == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		if err := run(*exp, *exp, r); err != nil {
			fail(err)
		}
	}

	// Solver-throughput summary: gain evaluations are the paper's unit of
	// solver work, so evals/sec is the headline number for kernel and
	// parallelism changes (profile with -cpuprofile to see where they go).
	if evals := reg.SumCounters("phocus_solver_gain_evals_total"); evals > 0 {
		solves, solveSecs := reg.SumHistograms("phocus_solve_seconds")
		fmt.Printf("== solver summary ==\n")
		fmt.Printf("solves: %d, gain evals: %d, solve time: %.3fs", solves, evals, solveSecs)
		if solveSecs > 0 {
			fmt.Printf(", gain evals/sec: %.3g", float64(evals)/solveSecs)
		}
		fmt.Printf("\n\n")
	}

	if *metricsOut {
		// The same exposition phocus-server serves on /metrics, so paper
		// runs and live traffic share one vocabulary.
		fmt.Println("== metrics registry ==")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fail(err)
		}
		fmt.Println()
	}

	if *html != "" {
		f, err := os.Create(*html)
		if err != nil {
			fail(err)
		}
		title := fmt.Sprintf("PHOcus reproduction — scale %.2f", cfg.Scale)
		if err := metrics.WriteHTMLReport(f, title, sections); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("HTML report written to %s\n", *html)
	}
}
