package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postDelta POSTs a delta batch and returns the status plus the decoded
// response (zero when the status is not 200).
func postDelta(t *testing.T, base, fp, body string) (int, deltaResponse) {
	t.Helper()
	resp, err := http.Post(base+"/instances/"+fp+"/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out deltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// growDelta is a minimal valid batch against the Figure 1 instance: one new
// photo joining subset 0.
const growDelta = `{"add":[{"cost":1.5,"memberships":[{"subset":0,"relevance":0.3}]}]}`

// TestDeltaEndpoint is the happy path: solve (which reports the prepared
// instance's fingerprint), apply a delta against it, and observe the rekey —
// the new fingerprint serves further deltas, the old one answers 404.
func TestDeltaEndpoint(t *testing.T) {
	s, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	body := instanceBody(t, 3.0).String()

	solved := postSolve(t, srv.URL+"/solve?algo=celf", body)
	if len(solved.Fingerprint) != 64 {
		t.Fatalf("solve response fingerprint %q, want 64 hex chars", solved.Fingerprint)
	}

	code, dr := postDelta(t, srv.URL, solved.Fingerprint, growDelta)
	if code != http.StatusOK {
		t.Fatalf("delta status %d, want 200", code)
	}
	if dr.OldFingerprint != solved.Fingerprint || dr.NewFingerprint == dr.OldFingerprint ||
		len(dr.NewFingerprint) != 64 {
		t.Fatalf("fingerprint evolution %q -> %q", dr.OldFingerprint, dr.NewFingerprint)
	}
	if dr.Added != 1 || dr.Removed != 0 || dr.Photos != 8 {
		t.Errorf("delta stats %+v, want 1 added onto the 7-photo instance", dr)
	}
	if dr.RequestID == "" || dr.ApplyMS < 0 || dr.SizeBytes <= 0 {
		t.Errorf("bookkeeping missing from response: %+v", dr)
	}

	// The cache was rekeyed: old fingerprint gone, new one live.
	if code, _ := postDelta(t, srv.URL, dr.OldFingerprint, growDelta); code != http.StatusNotFound {
		t.Errorf("delta against pre-churn fingerprint: status %d, want 404", code)
	}
	code, dr2 := postDelta(t, srv.URL, dr.NewFingerprint, growDelta)
	if code != http.StatusOK || dr2.Photos != 9 {
		t.Errorf("chained delta: status %d photos %d, want 200 and 9", code, dr2.Photos)
	}

	// Delta metrics observed the applies.
	if got := s.reg.Counter("phocus_delta_apply_total").Value(); got != 2 {
		t.Errorf("phocus_delta_apply_total = %d, want 2", got)
	}
	if got := s.reg.Counter("phocus_delta_photos_added_total").Value(); got != 2 {
		t.Errorf("phocus_delta_photos_added_total = %d, want 2", got)
	}

	// A solve against the evolved instance keys on the new fingerprint.
	resolved := postSolve(t, srv.URL+"/solve?algo=celf", body)
	if resolved.Fingerprint != solved.Fingerprint {
		t.Errorf("re-solve of the original body moved fingerprints: %q vs %q",
			resolved.Fingerprint, solved.Fingerprint)
	}
}

func TestDeltaValidation(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	body := instanceBody(t, 3.0).String()
	solved := postSolve(t, srv.URL+"/solve?algo=celf", body)

	unknown := strings.Repeat("ab", 32)
	cases := []struct {
		name, fp, body string
		want           int
	}{
		{"short fp", "abc123", growDelta, http.StatusBadRequest},
		{"unknown fp", unknown, growDelta, http.StatusNotFound},
		{"bad json", solved.Fingerprint, "{", http.StatusBadRequest},
		{"empty delta", solved.Fingerprint, "{}", http.StatusBadRequest},
		{"unknown subset", solved.Fingerprint, `{"add":[{"cost":1,"memberships":[{"subset":99,"relevance":0.5}]}]}`, http.StatusBadRequest},
		{"remove unknown photo", solved.Fingerprint, `{"remove":[99]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, _ := postDelta(t, srv.URL, tc.fp, tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// None of the rejections evolved the instance: the original fingerprint
	// still serves a valid delta.
	if code, _ := postDelta(t, srv.URL, solved.Fingerprint, growDelta); code != http.StatusOK {
		t.Errorf("valid delta after rejections: status %d, want 200", code)
	}
}

// TestDeltaBodyDecoding: a delta body must hold exactly one batch, on the
// synchronous endpoint and on session jobs alike. A second concatenated
// batch or trailing garbage is rejected whole, never applied as a prefix.
func TestDeltaBodyDecoding(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 1})
	body := instanceBody(t, 3.0).String()
	// The valid row comes last: it evolves the fingerprint, and every
	// rejection must leave the instance untouched for it.
	cases := []struct {
		name, body string
		ok         bool
	}{
		{"empty", "", false},
		{"two batches", growDelta + growDelta, false},
		{"trailing garbage", growDelta + "garbage", false},
		{"malformed", `{"add":[`, false},
		{"valid", growDelta, true},
	}
	t.Run("sync", func(t *testing.T) {
		fp := postSolve(t, srv.URL+"/solve?algo=celf", body).Fingerprint
		for _, tc := range cases {
			code, dr := postDelta(t, srv.URL, fp, tc.body)
			switch {
			case tc.ok && (code != http.StatusOK || dr.Added != 1):
				t.Errorf("%s: status %d added %d, want 200 and 1", tc.name, code, dr.Added)
			case !tc.ok && code != http.StatusBadRequest:
				t.Errorf("%s: status %d, want 400", tc.name, code)
			}
		}
	})
	t.Run("session", func(t *testing.T) {
		fp := postSolve(t, srv.URL+"/solve?algo=celf", body).Fingerprint
		for _, tc := range cases {
			if tc.body == "" {
				// Refused at submit, with a message naming the payload.
				resp, err := http.Post(srv.URL+"/jobs?kind=session&fp="+fp, "application/json", nil)
				if err != nil {
					t.Fatal(err)
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "want delta JSON") {
					t.Errorf("%s: submit status %d (%s), want 400 naming delta JSON", tc.name, resp.StatusCode, msg)
				}
				continue
			}
			resp, doc := submitJob(t, srv.URL, "?kind=session&fp="+fp, tc.body)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s: submit status %d, want 202", tc.name, resp.StatusCode)
			}
			want := "failed"
			if tc.ok {
				want = "done"
			}
			waitJobState(t, srv.URL, doc.ID, want)
		}
	})
}

// TestDeltaReplacesSnapshot: with a snapshot store attached, a delta must
// retire the pre-churn snapshot and persist the post-churn one, so a
// restarted server warm-fills only the evolved instance — the stale
// fingerprint is gone everywhere and the new one is servable with no cold
// prepare.
func TestDeltaReplacesSnapshot(t *testing.T) {
	dir := t.TempDir()
	body := instanceBody(t, 3.0).String()

	s1, srv1 := snapServer(t, dir)
	waitFor(t, "first server ready", func() bool { return s1.snapWarmed.Load() })
	solved := postSolve(t, srv1.URL+"/solve?algo=celf", body)
	waitFor(t, "snapshot write-back", func() bool { return len(snapFiles(t, dir)) == 1 })

	code, dr := postDelta(t, srv1.URL, solved.Fingerprint, growDelta)
	if code != http.StatusOK {
		t.Fatalf("delta status %d, want 200", code)
	}
	waitFor(t, "snapshot replacement", func() bool {
		files := snapFiles(t, dir)
		return len(files) == 1 && strings.Contains(files[0], dr.NewFingerprint)
	})

	s2, srv2 := snapServer(t, dir)
	waitFor(t, "warm-fill", func() bool { return s2.snapWarmed.Load() })
	if got := s2.reg.Counter("phocus_snapshot_load_total").Value(); got != 1 {
		t.Errorf("snapshot loads after restart = %d, want 1", got)
	}
	if code, _ := postDelta(t, srv2.URL, solved.Fingerprint, growDelta); code != http.StatusNotFound {
		t.Errorf("pre-churn fingerprint served after restart: status %d, want 404", code)
	}
	code, dr2 := postDelta(t, srv2.URL, dr.NewFingerprint, growDelta)
	if code != http.StatusOK || dr2.Photos != 9 {
		t.Errorf("post-churn instance after restart: status %d photos %d, want 200 and 9", code, dr2.Photos)
	}
}

// TestSessionJob routes a delta batch through the async path: POST
// /jobs?kind=session&fp=… answers 202, the batch applies on the scheduler,
// and the stored result is the same document the synchronous endpoint
// returns — with the cache rekeyed identically.
func TestSessionJob(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 2})
	body := instanceBody(t, 3.0).String()
	solved := postSolve(t, srv.URL+"/solve?algo=celf", body)

	resp, doc := submitJob(t, srv.URL, "?kind=session&fp="+solved.Fingerprint, growDelta)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("session submit status %d, want 202", resp.StatusCode)
	}
	done := waitJobState(t, srv.URL, doc.ID, "done")

	rr, err := http.Get(srv.URL + done.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	var dr deltaResponse
	if err := json.NewDecoder(rr.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.OldFingerprint != solved.Fingerprint || dr.Added != 1 || dr.Photos != 8 {
		t.Fatalf("session result %+v", dr)
	}
	if code, _ := postDelta(t, srv.URL, dr.NewFingerprint, growDelta); code != http.StatusOK {
		t.Errorf("instance not reachable under the session job's new fingerprint")
	}

	// A session batch the engine rejects fails the job on its one start.
	resp, doc = submitJob(t, srv.URL, "?kind=session&fp="+solved.Fingerprint, `{"remove":[99]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("invalid session submit status %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, d := getJobDoc(t, srv.URL, doc.ID)
		if code != http.StatusOK {
			t.Fatalf("status endpoint: %d", code)
		}
		if d.State == "failed" {
			if d.Attempts != 1 {
				t.Errorf("validation failure took %d attempts, want 1", d.Attempts)
			}
			break
		}
		if d.State == "done" || time.Now().After(deadline) {
			t.Fatalf("invalid session job state %q, want failed", d.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSessionJobValidation covers the submit-time parameter checks.
func TestSessionJobValidation(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 1})
	for _, q := range []string{
		"?kind=session",             // missing fp
		"?kind=session&fp=tooshort", // malformed fp
		"?kind=mystery",             // unknown kind
		"?kind=retention&runs=3",    // retention without every
		"?kind=retention&every=1h",  // retention without runs
		"?kind=retention&every=-1s&runs=2",
	} {
		resp, err := http.Post(srv.URL+"/jobs"+q, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", q, resp.StatusCode, msg)
		}
	}
}

// TestRetentionJob follows a three-run recurrence: each run solves, stores
// its result with the chain bookkeeping, and schedules its successor via
// a deferred Submit; the last run stops the chain.
func TestRetentionJob(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 2})
	body := instanceBody(t, 3.0).String()

	resp, doc := submitJob(t, srv.URL, "?kind=retention&every=30ms&runs=3&algo=celf", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retention submit status %d, want 202", resp.StatusCode)
	}

	var result retentionResult
	fetch := func(id string) retentionResult {
		t.Helper()
		done := waitJobState(t, srv.URL, id, "done")
		rr, err := http.Get(srv.URL + done.ResultURL)
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Body.Close()
		var out retentionResult
		if err := json.NewDecoder(rr.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	result = fetch(doc.ID)
	var scores []float64
	for runsLeft := 2; ; runsLeft-- {
		scores = append(scores, result.Score)
		if result.RunsLeft != runsLeft {
			t.Fatalf("runs_left %d, want %d", result.RunsLeft, runsLeft)
		}
		if runsLeft == 0 {
			if result.NextJobID != "" {
				t.Fatalf("final run scheduled a successor %q", result.NextJobID)
			}
			break
		}
		if result.NextJobID == "" || result.NextRunAt == nil {
			t.Fatalf("run with %d left has no successor: %+v", runsLeft, result)
		}
		// The successor is deferred until its NotBefore deadline.
		code, nd := getJobDoc(t, srv.URL, result.NextJobID)
		if code != http.StatusOK {
			t.Fatalf("successor status endpoint: %d", code)
		}
		if nd.State == "queued" && nd.NotBefore == nil {
			t.Errorf("queued successor %s has no not_before", result.NextJobID)
		}
		result = fetch(result.NextJobID)
	}
	// Same archive, same parameters: every run of the chain must agree.
	for i := 1; i < len(scores); i++ {
		if scores[i] != scores[0] {
			t.Fatalf("retention run %d scored %v, first run %v", i, scores[i], scores[0])
		}
	}
}
