package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"phocus/internal/obs"
)

// goldenFile holds the recorded answers TestGoldenResponses compares with.
var goldenFile = filepath.Join("testdata", "golden.json")

// goldenMasks strip what legitimately differs between runs of one build:
// durations, wall-clock timestamps and the random job IDs (which double as
// the request IDs of job results).
var goldenMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`,?"(elapsed_ms|bound_ms|apply_ms|wait_ms|run_ms)":[-0-9.e+]+`), ""},
	{regexp.MustCompile(`,?"(submitted_at|started_at|finished_at|next_run_at|not_before)":"[^"]*"`), ""},
	{regexp.MustCompile(`"(request_id|next_job_id)":"[0-9a-f]{16}"`), `"$1":"<job>"`},
}

func maskGolden(s string) string {
	for _, m := range goldenMasks {
		s = m.re.ReplaceAllString(s, m.with)
	}
	return s
}

// TestGoldenResponses pins the wire answers of every request path byte for
// byte (after masking durations, timestamps and job IDs): /solve on a miss,
// a hit and without ?budget, each 4xx TestSolveErrors covers, the 400 for
// lsh=1, the delta endpoint's 200/404/400, the stored results of the solve, session and
// retention job kinds, and the span names and attributes of one miss and one
// hit. The recording lives in testdata/golden.json; when the file is absent
// the test writes it and fails, so a fresh recording never passes silently.
func TestGoldenResponses(t *testing.T) {
	s, srv := jobsTestServer(t, serverConfig{JobWorkers: 1})
	got := map[string]string{}
	do := func(name, method, path, reqID, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if name != "" {
			got[name] = fmt.Sprintf("%d %s", resp.StatusCode, maskGolden(string(out)))
		}
		return string(out)
	}
	spans := func(name, reqID string) {
		t.Helper()
		var lines []string
		waitFor(t, "encode span of "+reqID, func() bool {
			tr, ok := s.trace.Get(reqID)
			if !ok || !slices.ContainsFunc(tr.Spans, func(sp obs.SpanRecord) bool { return sp.Name == "encode" }) {
				return false
			}
			lines = lines[:0]
			for _, sp := range tr.Spans {
				keys := make([]string, 0, len(sp.Attrs))
				for k := range sp.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				line := sp.Name
				for _, k := range keys {
					v := sp.Attrs[k]
					if strings.HasSuffix(k, "_ms") {
						v = "<ms>"
					}
					line += " " + k + "=" + v
				}
				lines = append(lines, line)
			}
			return true
		})
		got[name] = strings.Join(lines, "\n")
	}
	fingerprint := func(body string) string {
		t.Helper()
		var doc struct {
			Fingerprint    string `json:"fingerprint"`
			NewFingerprint string `json:"new_fingerprint"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%v: %q", err, body)
		}
		return doc.Fingerprint + doc.NewFingerprint
	}
	job := func(name, query, body string) {
		t.Helper()
		resp, doc := submitJob(t, srv.URL, query, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", name, resp.StatusCode)
		}
		waitJobState(t, srv.URL, doc.ID, "done")
		do(name, http.MethodGet, "/jobs/"+doc.ID+"/result", "", "")
	}

	valid := instanceBody(t, 3.0).String()
	fp := fingerprint(do("solve/miss", http.MethodPost, "/solve?tau=0.5&budget=3", "golden-miss", valid))
	spans("spans/miss", "golden-miss")
	do("solve/hit", http.MethodPost, "/solve?tau=0.5&budget=3", "golden-hit", valid)
	spans("spans/hit", "golden-hit")
	do("solve/no-budget", http.MethodPost, "/solve?tau=0.5", "golden-no-budget", valid)
	for _, tc := range []struct{ name, query, body string }{
		{"bad-json", "", "{"},
		{"trailing-junk", "", valid + " garbage"},
		{"second-instance", "", valid + valid},
		{"bad-algo", "?algo=magic", valid},
		{"bad-budget", "?budget=-3", valid},
		{"bad-tau", "?tau=7", valid},
	} {
		do("solve/"+tc.name, http.MethodPost, "/solve"+tc.query, "golden-"+tc.name, tc.body)
	}

	job("job/solve", "?tau=0.5&budget=3", valid)
	job("job/retention", "?kind=retention&every=1h&runs=2&tau=0.5&budget=3", valid)

	next := fingerprint(do("delta/200", http.MethodPost, "/instances/"+fp+"/delta", "golden-delta", growDelta))
	do("delta/404", http.MethodPost, "/instances/"+fp+"/delta", "golden-delta-404", growDelta)
	do("delta/400-json", http.MethodPost, "/instances/"+next+"/delta", "golden-delta-400", "{")
	do("delta/400-batch", http.MethodPost, "/instances/"+next+"/delta", "golden-delta-400b", `{"remove":[99]}`)
	vec, budget := vectorBody(t, true)
	do("solve/lsh", http.MethodPost, fmt.Sprintf("/solve?lsh=1&tau=0.6&seed=2&budget=%.0f", budget), "golden-lsh", vec)
	job("job/session", "?kind=session&fp="+next, growDelta)

	want, err := os.ReadFile(goldenFile)
	if errors.Is(err, fs.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s: rerun to compare", goldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string]string
	if err := json.Unmarshal(want, &recorded); err != nil {
		t.Fatal(err)
	}
	for name, w := range recorded {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: not produced", name)
		} else if g != w {
			t.Errorf("%s:\n got %q\nwant %q", name, g, w)
		}
	}
	for name := range got {
		if _, ok := recorded[name]; !ok {
			t.Errorf("%s: produced but not recorded", name)
		}
	}
}
