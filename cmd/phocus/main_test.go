package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phocus/internal/celf"
	"phocus/internal/par"
	"phocus/internal/phocus"
)

// cliOpts mirrors what main() builds from the flags for a given -tau.
func cliOpts(tau float64) phocus.PrepareOptions {
	return phocus.PrepareOptions{Tau: tau}
}

// writeFigure1 dumps the Figure 1 instance at the given budget to a temp
// file and returns its path.
func writeFigure1(t *testing.T, budget float64) string {
	t.Helper()
	inst := par.Figure1Instance()
	inst.Budget = budget
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := par.WriteJSON(f, inst); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunText(t *testing.T) {
	path := writeFigure1(t, 3.0)
	var out bytes.Buffer
	if err := run(&out, path, 0, "", "celf", cliOpts(0), false, false, 0); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"PHOcus", "7 total, 3 retained, 4 archived", "certified:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunJSONAndBudgetOverride(t *testing.T) {
	path := writeFigure1(t, 8.2)
	var out bytes.Buffer
	if err := run(&out, path, 2.0, "", "exact", cliOpts(0), true, false, 0); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Algorithm string        `json:"algorithm"`
		Retain    []par.PhotoID `json:"retain"`
		Score     float64       `json:"score"`
		Cost      float64       `json:"cost"`
		Budget    float64       `json:"budget"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, out.String())
	}
	if res.Algorithm != "Brute-Force" || res.Budget != 2.0 {
		t.Errorf("result %+v", res)
	}
	if res.Cost > 2.0 {
		t.Errorf("cost %g exceeds overridden budget", res.Cost)
	}
	// OPT at budget 2.0 keeps p1+p2: 11.36 (from the worked example).
	if res.Score < 11.35 || res.Score > 11.37 {
		t.Errorf("score %g, want ≈11.36", res.Score)
	}
}

func TestRunRetainedFlag(t *testing.T) {
	path := writeFigure1(t, 3.0)
	var out bytes.Buffer
	if err := run(&out, path, 0, "6", "celf", cliOpts(0), true, false, 0); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Retain []par.PhotoID `json:"retain"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	has := false
	for _, p := range res.Retain {
		if p == 6 {
			has = true
		}
	}
	if !has {
		t.Errorf("photo 6 not retained: %v", res.Retain)
	}
}

func TestRunSparsified(t *testing.T) {
	path := writeFigure1(t, 3.0)
	var out bytes.Buffer
	if err := run(&out, path, 0, "", "sviridenko", cliOpts(0.6), false, false, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Sviridenko") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeFigure1(t, 3.0)
	var out bytes.Buffer
	cases := []struct {
		name string
		call func() error
	}{
		{"missing input", func() error { return run(&out, "", 0, "", "celf", cliOpts(0), false, false, 0) }},
		{"no such file", func() error { return run(&out, "/nonexistent.json", 0, "", "celf", cliOpts(0), false, false, 0) }},
		{"bad algo", func() error { return run(&out, path, 0, "", "magic", cliOpts(0), false, false, 0) }},
		{"bad retained", func() error { return run(&out, path, 0, "x,y", "celf", cliOpts(0), false, false, 0) }},
		{"retained out of range", func() error { return run(&out, path, 0, "99", "celf", cliOpts(0), false, false, 0) }},
	}
	for _, tc := range cases {
		if err := tc.call(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRunStreaming(t *testing.T) {
	path := writeFigure1(t, 3.0)
	var out bytes.Buffer
	if err := run(&out, path, 0, "", "streaming", cliOpts(0), true, false, 0); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Algorithm string  `json:"algorithm"`
		Cost      float64 `json:"cost"`
		Budget    float64 `json:"budget"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, out.String())
	}
	if res.Algorithm != "Sieve-Streaming" || res.Cost > res.Budget {
		t.Errorf("result %+v", res)
	}
}

func TestRunStatsFlag(t *testing.T) {
	path := writeFigure1(t, 3.0)
	var out bytes.Buffer
	if err := run(&out, path, 0, "", "celf", cliOpts(0), false, true, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "photos:       7") {
		t.Errorf("stats block missing:\n%s", out.String())
	}
}

func TestRunCompare(t *testing.T) {
	path := writeFigure1(t, 3.0)
	var out bytes.Buffer
	if err := runCompare(&out, path, 0, ""); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// Every row's online bound is an upper bound on OPT; the table must
	// report the tightest one.
	inst, err := loadInstance(path, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	tightest := math.Inf(1)
	for _, s := range compareSolvers(inst) {
		sol, err := s.Solve(context.Background(), inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		tightest = math.Min(tightest, celf.OnlineBound(inst, sol.Photos))
	}
	if want := fmt.Sprintf("upper bound on the optimum: %.6f\n", tightest); !strings.Contains(text, want) {
		t.Errorf("compare output lacks %q:\n%s", want, text)
	}
	for _, want := range []string{"PHOcus", "Sieve-Streaming", "Brute-Force", "upper bound"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
	// Rows sorted by score: the exact solver must appear at or above PHOcus.
	if strings.Index(text, "Brute-Force") > strings.Index(text, "RAND-A") {
		t.Errorf("rows not sorted by score:\n%s", text)
	}
	if err := runCompare(&out, "", 0, ""); err == nil {
		t.Error("missing input accepted")
	}
}
