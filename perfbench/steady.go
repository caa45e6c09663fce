package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// steady is the evidence behind the bounds in BENCHMARK.json: it runs each
// workload n times (seeds first..first+n−1) in one batch, then again in a
// second batch, each run a fresh process, and prints per metric the median
// and quartiles over all runs, each batch's spread (Q3−Q1)/median, and the
// change between the two batch medians. Next to them it prints the same figures for
// a reference CPU loop timed between runs, so machine noise can be told from
// benchmark noise.
func steady(w io.Writer, names []string, n int, first int64, seconds int, server, work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	type key struct {
		workload, metric string
	}
	values := map[key][2][]float64{}
	var ref [2][]float64
	for batch := 0; batch < 2; batch++ {
		for _, name := range names {
			for k := 0; k < n; k++ {
				seed := first + int64(k)
				res, err := runChild(self, name, seed, seconds, server, work)
				if err != nil {
					return fmt.Errorf("batch %d %s seed %d: %w", batch+1, name, seed, err)
				}
				var got []string
				for _, m := range endToEnd {
					v := res.Metrics[m.name].Value
					vs := values[key{name, m.name}]
					vs[batch] = append(vs[batch], v)
					values[key{name, m.name}] = vs
					got = append(got, fmt.Sprintf("%s=%.4g", m.name, v))
				}
				ref[batch] = append(ref[batch], refLoop())
				fmt.Fprintf(w, "batch %d %-12s seed %-3d %s\n", batch+1, name, seed, strings.Join(got, " "))
			}
		}
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return 100 * (q3 - q1) / median(xs)
	}
	row := func(label string, vs [2][]float64) {
		all := append(append([]float64{}, vs[0]...), vs[1]...)
		q1, q3 := quartiles(all)
		a, b := median(vs[0]), median(vs[1])
		fmt.Fprintf(w, "%-30s %12.4f %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%%\n",
			label, median(all), q1, q3, spread(vs[0]), spread(vs[1]), 100*(b-a)/a)
	}
	fmt.Fprintf(w, "\n%-30s %12s %12s %12s %8s %8s %8s\n", "metric", "median", "Q1", "Q3", "spread A", "spread B", "B vs A")
	for _, name := range names {
		fmt.Fprintf(w, "%s (%d runs per batch, %ds each)\n", name, n, seconds)
		for _, m := range endToEnd {
			row("  "+m.name, values[key{name, m.name}])
		}
	}
	row("reference CPU loop (ms)", ref)
	return nil
}

// runChild runs one workload in a fresh process and parses its result line.
func runChild(self, name string, seed int64, seconds int, server, work string) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", "0", "--server", server, "--workdir", work)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return nil, fmt.Errorf("no result line (exit: %v): %s", err, out.String())
	}
	if err != nil || !res.Correct {
		return nil, fmt.Errorf("run failed (exit: %v): %s", err, out.String())
	}
	return &res, nil
}

// refLoop times a fixed CPU-bound loop (sha256 over 64 MiB in 1 MiB
// chunks) that shares no code with the program, in ms.
func refLoop() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	return ms(time.Since(t0))
}
