// Command phocus-benchsum condenses a `go test -json -bench ...` stream
// (the BENCH_kernel.json / BENCH_jobs.json artifacts the CI bench job
// already produces) into one JSON line per run, suitable for appending to
// the tracked bench/history.jsonl:
//
//	go test -json -bench JobsThroughput -benchtime=2s -run '^$' ./internal/jobs \
//	  | phocus-benchsum -suite jobs -commit "$(git rev-parse --short HEAD)" >> bench/history.jsonl
//
// Each line carries the suite name, the commit, and every benchmark's
// ns/op, B/op, allocs/op and custom metrics (jobs/sec, wait-p50-ms, ...),
// so the perf trajectory lives in git history instead of expiring with CI
// artifact retention. Benchmarks are named without the -N GOMAXPROCS
// suffix, so one benchmark keeps one name across lines and machines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark's parsed numbers.
type benchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// historyLine is the one-line-per-run summary appended to history.jsonl.
type historyLine struct {
	Suite      string        `json:"suite"`
	Commit     string        `json:"commit,omitempty"`
	Date       string        `json:"date,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// testEvent is the subset of the `go test -json` event stream we read.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

func main() {
	suite := flag.String("suite", "", "suite label recorded in the summary line (e.g. kernel, jobs)")
	commit := flag.String("commit", "", "commit hash recorded in the summary line")
	date := flag.String("date", "", "ISO date recorded in the summary line")
	in := flag.String("in", "-", "go test -json stream (- = stdin)")
	flag.Parse()

	if err := run(os.Stdout, *in, *suite, *commit, *date); err != nil {
		fmt.Fprintln(os.Stderr, "phocus-benchsum:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, in, suite, commit, date string) error {
	if suite == "" {
		return fmt.Errorf("-suite is required")
	}
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	results, err := parseStream(r)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark result lines in the stream")
	}
	sortResults(results)
	line := historyLine{Suite: suite, Commit: commit, Date: date, Benchmarks: results}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// parseStream extracts benchmark result lines from a go test -json stream.
// Non-JSON input lines are tolerated and parsed as raw `go test -bench`
// output, so both artifact formats work.
func parseStream(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		text, name := line, ""
		if strings.HasPrefix(strings.TrimSpace(line), "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				continue // not a test event; skip
			}
			if ev.Action != "output" {
				continue
			}
			text = ev.Output
			// With sub-benchmarks, -json puts the name in the Test field and
			// emits the result line either as bare numbers, which are
			// stitched back to the name here, or behind the name with its -N
			// suffix. The Test field never carries the suffix, so it names
			// the result either way.
			if strings.HasPrefix(ev.Test, "Benchmark") {
				name = ev.Test
				if !strings.HasPrefix(strings.TrimSpace(text), "Benchmark") && strings.Contains(text, "ns/op") {
					text = ev.Test + " " + text
				}
			}
		}
		if res, ok := parseBenchLine(text); ok {
			if name != "" {
				res.Name = name
			}
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// parseBenchLine parses one `BenchmarkName-8   100   123 ns/op   4 widgets`
// result line, naming it without the -8. Fields after the iteration count
// come in value-unit pairs.
func parseBenchLine(s string) (benchResult, bool) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	res := benchResult{Name: stripProcs(fields[0]), Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.NsPerOp = v
		} else {
			res.Metrics[unit] = v
		}
	}
	if len(res.Metrics) == 0 {
		res.Metrics = nil
	}
	return res, true
}

// stripProcs drops the -N GOMAXPROCS suffix go test appends to a benchmark
// name. go test leaves it off at GOMAXPROCS=1, so a raw line's own trailing
// -<digits> is dropped too then; a -json line named by its Test field is
// exact.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 || strings.TrimLeft(name[i+1:], "0123456789") != "" {
		return name
	}
	return name[:i]
}

// sortResults orders results by name so history lines diff cleanly.
func sortResults(rs []benchResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
}
