package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkJobsThroughput-8   \t 1234\t  56789 ns/op\t  9918 jobs/sec\t 1.5 wait-p50-ms")
	if !ok {
		t.Fatal("result line not recognized")
	}
	if res.Name != "BenchmarkJobsThroughput" || res.Iters != 1234 || res.NsPerOp != 56789 {
		t.Errorf("parsed %+v", res)
	}
	if res.Metrics["jobs/sec"] != 9918 || res.Metrics["wait-p50-ms"] != 1.5 {
		t.Errorf("metrics %v", res.Metrics)
	}

	for _, bad := range []string{
		"ok  \tphocus\t1.2s",
		"PASS",
		"BenchmarkX", // no fields
		"BenchmarkX notanumber 5 ns/op",
		"--- BENCH: BenchmarkX",
	} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("line %q parsed as a result", bad)
		}
	}
}

func TestParseStreamJSONEvents(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"start","Package":"phocus"}`,
		`{"Action":"output","Output":"goos: linux\n"}`,
		`{"Action":"output","Output":"BenchmarkEvaluatorGain-8  \t 500\t 2000 ns/op\n"}`,
		`{"Action":"output","Output":"BenchmarkLazyGreedy-8  \t 10\t 90000 ns/op\t 12 B/op\t 3 allocs/op\n"}`,
		`{"Action":"pass","Package":"phocus"}`,
	}, "\n")
	rs, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results, want 2: %+v", len(rs), rs)
	}
	if rs[1].Metrics["allocs/op"] != 3 {
		t.Errorf("allocs/op = %v", rs[1].Metrics)
	}
}

func TestParseStreamSplitNameEvents(t *testing.T) {
	// Sub-benchmarks under -json carry the name in the Test field and emit a
	// result line of bare numbers.
	stream := strings.Join([]string{
		`{"Action":"output","Test":"BenchmarkEvaluatorGain/kernel","Output":"BenchmarkEvaluatorGain/kernel\n"}`,
		`{"Action":"output","Test":"BenchmarkEvaluatorGain/kernel","Output":" 4381622\t       556.7 ns/op\t       0 B/op\t       0 allocs/op\n"}`,
	}, "\n")
	rs, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != "BenchmarkEvaluatorGain/kernel" || rs[0].NsPerOp != 556.7 {
		t.Fatalf("results %+v", rs)
	}
}

// TestParseStreamDropsProcsSuffix: every form go test prints a result in —
// a -json sub-benchmark line of bare numbers, a -json line that keeps the
// name with its -N suffix, a -json line with no Test field, and raw -bench
// output — records the benchmark under one name, without the suffix.
func TestParseStreamDropsProcsSuffix(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"output","Test":"BenchmarkReadJSON/stdlib","Output":" 50\t 2000 ns/op\n"}`,
		`{"Action":"output","Test":"BenchmarkReadJSON/onepass","Output":"BenchmarkReadJSON/onepass-2  \t 90\t 1000 ns/op\n"}`,
		`{"Action":"output","Test":"BenchmarkSweep/size-100","Output":"BenchmarkSweep/size-100-2  \t 9\t 7 ns/op\n"}`,
		`{"Action":"output","Output":"BenchmarkTop-4  \t 10\t 5 ns/op\n"}`,
		`BenchmarkSolveHandler/hit-2  300  3600000 ns/op  130 allocs/op`,
		`BenchmarkRing/P-1K-8  3  4 ns/op`,
		`BenchmarkSingleProc  3  4 ns/op`,
	}, "\n")
	rs, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rs {
		names = append(names, r.Name)
	}
	want := []string{"BenchmarkReadJSON/stdlib", "BenchmarkReadJSON/onepass", "BenchmarkSweep/size-100",
		"BenchmarkTop", "BenchmarkSolveHandler/hit", "BenchmarkRing/P-1K", "BenchmarkSingleProc"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("names %q, want %q", names, want)
	}
}

func TestParseStreamRawBenchOutput(t *testing.T) {
	// Plain -bench output (no -json) parses too.
	raw := "goos: linux\nBenchmarkX-4  100  5 ns/op\nPASS\n"
	rs, err := parseStream(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].NsPerOp != 5 {
		t.Errorf("results %+v", rs)
	}
}

func TestRunEmitsOneLine(t *testing.T) {
	in := filepath.Join(t.TempDir(), "bench.json")
	stream := `{"Action":"output","Output":"BenchmarkB-2  10  7 ns/op\n"}` + "\n" +
		`{"Action":"output","Output":"BenchmarkA-2  10  3 ns/op\n"}` + "\n"
	if err := os.WriteFile(in, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(&sb, in, "kernel", "abc1234", "2026-08-08"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("output is not one line: %q", out)
	}
	var line historyLine
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatal(err)
	}
	if line.Suite != "kernel" || line.Commit != "abc1234" || line.Date != "2026-08-08" {
		t.Errorf("envelope %+v", line)
	}
	// Sorted by name for clean diffs.
	if len(line.Benchmarks) != 2 || line.Benchmarks[0].Name != "BenchmarkA" {
		t.Errorf("benchmarks %+v", line.Benchmarks)
	}
}

func TestRunRejectsEmptyStream(t *testing.T) {
	in := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(in, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(&sb, in, "kernel", "", ""); err == nil {
		t.Error("empty stream did not fail")
	}
	if err := run(&sb, in, "", "", ""); err == nil {
		t.Error("missing -suite did not fail")
	}
}
