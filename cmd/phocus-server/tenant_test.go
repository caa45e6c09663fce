package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"phocus/internal/fleet"
	"phocus/internal/obs"
)

// shardedServer builds a server that believes it is shard self of a 3-shard
// fleet (peer URLs are placeholders — ownership math only needs the count).
func shardedServer(t *testing.T, self int, extra func(*serverConfig)) (*server, *httptest.Server) {
	t.Helper()
	cfg := serverConfig{
		MaxBody: 256 << 20, JobWorkers: 2, ExactMaxNodes: 50_000_000,
		CacheEntries: 64, CacheBytes: 1 << 30,
		ShardSpec: fmt.Sprintf("%d/3", self),
		Peers:     "http://shard0:8080,http://shard1:8080,http://shard2:8080",
	}
	if extra != nil {
		extra(&cfg)
	}
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), cfg)
	srv := httptest.NewServer(s.telemetry(s.mux(false)))
	t.Cleanup(srv.Close)
	return s, srv
}

// tenantOwnedBy finds a tenant the given shard owns on a 3-shard ring.
func tenantOwnedBy(t *testing.T, m *fleet.ShardMap, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		c := fmt.Sprintf("tenant-%d", i)
		if m.Owner(c) == shard {
			return c
		}
	}
	t.Fatal("no tenant found for shard")
	return ""
}

func TestShardHeaderAndOwnership(t *testing.T) {
	s, srv := shardedServer(t, 1, nil)

	// Every response names the shard, the fleet size and the map fingerprint.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := "1/3@" + s.shards.Fingerprint()
	if got := resp.Header.Get(fleet.ShardHeader); got != want {
		t.Fatalf("shard header %q, want %q", got, want)
	}

	// A tenant this shard owns solves normally.
	mine := tenantOwnedBy(t, s.shards, 1)
	req, _ := http.NewRequest("POST", srv.URL+"/solve", instanceBody(t, 10))
	req.Header.Set(fleet.TenantHeader, mine)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owned tenant solve: status %d", resp.StatusCode)
	}

	// A tenant owned elsewhere answers 421 and names the owner.
	other := tenantOwnedBy(t, s.shards, 2)
	req, _ = http.NewRequest("POST", srv.URL+"/solve", instanceBody(t, 10))
	req.Header.Set(fleet.TenantHeader, other)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted tenant: status %d, want 421", resp.StatusCode)
	}
	if !strings.Contains(string(body), "shard 2") {
		t.Errorf("421 body %q does not name the owning shard", body)
	}

	// The same misroute on POST /jobs and delta.
	req, _ = http.NewRequest("POST", srv.URL+"/jobs", instanceBody(t, 10))
	req.Header.Set(fleet.TenantHeader, other)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted job submit: status %d, want 421", resp.StatusCode)
	}
	req, _ = http.NewRequest("POST", srv.URL+"/instances/"+strings.Repeat("ab", 32)+"/delta", strings.NewReader("{}"))
	req.Header.Set(fleet.TenantHeader, other)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted delta: status %d, want 421", resp.StatusCode)
	}

	// An invalid tenant is 400, not 421 or a silent default.
	req, _ = http.NewRequest("POST", srv.URL+"/solve", instanceBody(t, 10))
	req.Header.Set(fleet.TenantHeader, "bad tenant!")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid tenant: status %d, want 400", resp.StatusCode)
	}
}

func TestStandaloneServerHasNoShardHeader(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(fleet.ShardHeader); got != "" {
		t.Fatalf("standalone server sent shard header %q", got)
	}
	// Standalone servers own every tenant: no 421s ever.
	req, _ := http.NewRequest("POST", srv.URL+"/solve", instanceBody(t, 10))
	req.Header.Set(fleet.TenantHeader, "anyone")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("standalone tenant solve: status %d", resp.StatusCode)
	}
}

func TestTenantQuota429(t *testing.T) {
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{
		MaxBody: 256 << 20, JobWorkers: 2, ExactMaxNodes: 50_000_000,
		CacheEntries: 64, CacheBytes: 1 << 30,
		TenantRate: 0.001, TenantBurst: 2, // two requests, then a long dry spell
	})
	srv := httptest.NewServer(s.telemetry(s.mux(false)))
	defer srv.Close()

	post := func(tenant string) int {
		req, _ := http.NewRequest("POST", srv.URL+"/solve", instanceBody(t, 10))
		req.Header.Set(fleet.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		return resp.StatusCode
	}
	if got := post("hot"); got != http.StatusOK {
		t.Fatalf("first request: %d", got)
	}
	if got := post("hot"); got != http.StatusOK {
		t.Fatalf("second request: %d", got)
	}
	if got := post("hot"); got != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: %d, want 429", got)
	}
	// Another tenant is unaffected by the hot tenant's empty bucket.
	if got := post("cold"); got != http.StatusOK {
		t.Fatalf("cold tenant: %d", got)
	}
}

func TestTenantScopedFingerprints(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	solveFP := func(tenant string) string {
		req, _ := http.NewRequest("POST", srv.URL+"/solve", instanceBody(t, 10))
		if tenant != "" {
			req.Header.Set(fleet.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve as %q: status %d", tenant, resp.StatusCode)
		}
		var doc struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.Fingerprint
	}

	fpDefault := solveFP("")
	fpExplicitDefault := solveFP(fleet.DefaultTenant)
	fpAlice := solveFP("alice")
	fpBob := solveFP("bob")
	if fpDefault != fpExplicitDefault {
		t.Errorf("explicit default tenant changed the fingerprint: %s vs %s", fpDefault, fpExplicitDefault)
	}
	if fpAlice == fpDefault || fpBob == fpDefault || fpAlice == fpBob {
		t.Errorf("tenant fingerprints not distinct: default=%s alice=%s bob=%s", fpDefault, fpAlice, fpBob)
	}
	// Same tenant, same body: stable.
	if again := solveFP("alice"); again != fpAlice {
		t.Errorf("alice fingerprint drifted: %s vs %s", again, fpAlice)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, srv := shardedServer(t, 0, nil)
	tenant := tenantOwnedBy(t, s.shards, 0)
	req, _ := http.NewRequest("POST", srv.URL+"/jobs", instanceBody(t, 10))
	req.Header.Set(fleet.TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: %d", resp.StatusCode)
	}

	if resp, err = http.Get(srv.URL + "/stats"); err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Shard *struct {
			Self           int    `json:"self"`
			Shards         int    `json:"shards"`
			MapFingerprint string `json:"map_fingerprint"`
		} `json:"shard"`
		Jobs  map[string]int `json:"jobs"`
		Ready bool           `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Shard == nil || doc.Shard.Self != 0 || doc.Shard.Shards != 3 {
		t.Fatalf("stats shard doc %+v", doc.Shard)
	}
	if doc.Shard.MapFingerprint != s.shards.Fingerprint() {
		t.Errorf("stats fingerprint %q", doc.Shard.MapFingerprint)
	}
	if doc.Jobs["total"] < 1 {
		t.Errorf("stats jobs %v, want at least the submitted one", doc.Jobs)
	}
	if !doc.Ready {
		t.Error("stats ready=false on a live server")
	}
}

func TestJobListTenantFilterAndJobTenant(t *testing.T) {
	_, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	submit := func(tenant string) {
		req, _ := http.NewRequest("POST", srv.URL+"/jobs", instanceBody(t, 10))
		if tenant != "" {
			req.Header.Set(fleet.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Tenant string `json:"tenant"`
		}
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit as %q: %d", tenant, resp.StatusCode)
		}
		wantTenant := tenant
		if wantTenant == "" {
			wantTenant = fleet.DefaultTenant
		}
		if doc.Tenant != wantTenant {
			t.Fatalf("202 doc tenant %q, want %q", doc.Tenant, wantTenant)
		}
	}
	submit("alice")
	submit("alice")
	submit("bob")
	submit("")

	list := func(query string, hdr string) (int, []string) {
		req, _ := http.NewRequest("GET", srv.URL+"/jobs"+query, nil)
		if hdr != "" {
			req.Header.Set(fleet.TenantHeader, hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Total int `json:"total"`
			Jobs  []struct {
				Tenant string `json:"tenant"`
			} `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		tenants := make([]string, len(doc.Jobs))
		for i, j := range doc.Jobs {
			tenants[i] = j.Tenant
		}
		return doc.Total, tenants
	}

	if total, _ := list("", ""); total != 4 {
		t.Fatalf("unfiltered total %d, want 4", total)
	}
	total, tenants := list("?tenant=alice", "")
	if total != 2 {
		t.Fatalf("alice total %d, want 2", total)
	}
	for _, tn := range tenants {
		if tn != "alice" {
			t.Fatalf("alice filter leaked tenant %q", tn)
		}
	}
	if total, _ := list("", "bob"); total != 1 {
		t.Fatalf("bob (header) total %d, want 1", total)
	}
	if total, _ := list("?tenant=default", ""); total != 1 {
		t.Fatalf("default total %d, want 1", total)
	}
}

func TestReadyzRetryAfter(t *testing.T) {
	s, h := newTestServer(t, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	s.jobs.BeginDrain()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("draining readyz Retry-After %q, want a positive number of seconds", ra)
	}
}

// TestDeltaOwnerScoped is the tenant table of the fingerprint handles: alice
// prepares an archive, and then alice, bob and the default tenant each send
// one delta to its fingerprint, through POST /instances/{fp}/delta and
// through a kind=session job, with the instance in the prepare cache or on
// disk only (evicted by a second archive past a one-entry cache). Only the
// owner's delta applies. Everyone else gets the unknown-fingerprint answer,
// word for word, without a snapshot load, and the instance is left as it
// was: the owner's delta after it still applies to the same fingerprint.
func TestDeltaOwnerScoped(t *testing.T) {
	body := instanceBody(t, 3.0).String()
	for _, tenant := range []string{"alice", "bob", fleet.DefaultTenant} {
		for _, where := range []string{"cached", "snapshot-only"} {
			for _, path := range []string{"delta", "session"} {
				t.Run(tenant+"/"+where+"/"+path, func(t *testing.T) {
					dir := t.TempDir()
					s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{
						MaxBody: 256 << 20, JobWorkers: 1, CacheEntries: 1, SnapshotDir: dir,
					})
					srv := httptest.NewServer(s.telemetry(s.mux(false)))
					t.Cleanup(srv.Close)
					waitFor(t, "warm-fill", func() bool { return s.snapWarmed.Load() })
					code, out := postAs(t, srv.URL+"/solve", "alice", []byte(body))
					if code != http.StatusOK {
						t.Fatalf("alice solve: %d %s", code, out)
					}
					var solved solveResponse
					if err := json.Unmarshal(out, &solved); err != nil {
						t.Fatal(err)
					}
					fp := solved.Fingerprint
					if where == "snapshot-only" {
						waitFor(t, "alice's snapshot", func() bool { return len(snapFiles(t, dir)) == 1 })
						if code, out := postAs(t, srv.URL+"/solve", "filler", []byte(body)); code != http.StatusOK {
							t.Fatalf("filler solve: %d %s", code, out)
						}
						if got := s.reg.Counter("phocus_prepare_cache_evictions_total").Value(); got != 1 {
							t.Fatalf("filler solve evicted %d entries, want alice's", got)
						}
					}

					// apply sends the delta as tenant and returns the status with the
					// body. A session job that fails stands for a 404 whose body is
					// the job's error text, the text the endpoint would answer.
					apply := func(tenant string) (int, string) {
						t.Helper()
						if path == "delta" {
							code, out := postAs(t, srv.URL+"/instances/"+fp+"/delta", tenant, []byte(growDelta))
							return code, string(out)
						}
						req, _ := http.NewRequest(http.MethodPost, srv.URL+"/jobs?kind=session&fp="+fp, strings.NewReader(growDelta))
						req.Header.Set(fleet.TenantHeader, tenant)
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Fatal(err)
						}
						var doc jobStatusDoc
						err = json.NewDecoder(resp.Body).Decode(&doc)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusAccepted {
							t.Fatalf("session submit: %d %v", resp.StatusCode, err)
						}
						for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
							_, doc = getJobDoc(t, srv.URL, doc.ID)
							switch doc.State {
							case "done":
								return http.StatusOK, ""
							case "failed":
								return http.StatusNotFound, doc.Error + "\n"
							}
						}
						t.Fatalf("session job stuck at %q", doc.State)
						return 0, ""
					}

					loads := s.reg.Histogram("phocus_snapshot_load_seconds", obs.DefBuckets)
					corrupt := s.reg.Counter("phocus_snapshot_corrupt_total")
					loaded, corrupted := loads.Count(), corrupt.Value()
					code, msg := apply(tenant)
					if tenant == "alice" {
						if code != http.StatusOK {
							t.Fatalf("owner's delta: %d %s", code, msg)
						}
						return
					}
					want := fmt.Sprintf("no prepared instance for fingerprint %.12s… (prepare it via /solve or /jobs first)\n", fp)
					if code != http.StatusNotFound || msg != want {
						t.Errorf("%s's delta to alice's fingerprint: %d %q, want 404 %q", tenant, code, msg, want)
					}
					// The 404 read only the owner of alice's snapshot: it
					// loaded nothing, found nothing corrupt and kept the
					// cache as it was — the filler's entry stays, and nothing
					// is evicted.
					if n, c := loads.Count(), corrupt.Value(); n != loaded || c != corrupted {
						t.Errorf("after %s's 404: %d snapshot loads and %d corrupt, want %d and %d", tenant, n, c, loaded, corrupted)
					}
					if where == "snapshot-only" {
						if n, ev := s.pipe.Cache.Len(), s.reg.Counter("phocus_prepare_cache_evictions_total").Value(); n != 1 || ev != 1 {
							t.Errorf("after %s's 404: %d cache entries and %d evictions, want the filler's 1 and 1", tenant, n, ev)
						}
					}
					if code, msg := apply("alice"); code != http.StatusOK {
						t.Errorf("alice's delta after %s's: %d %s", tenant, code, msg)
					}
				})
			}
		}
	}
}

// TestJobListUnscopedDropsParams: the fleet-wide GET /jobs spans tenants, so
// it must not show a job's params, which name a fingerprint (fp=…) for
// session jobs. A tenant's own listing and the job's status document still
// carry them.
func TestJobListUnscopedDropsParams(t *testing.T) {
	_, srv := jobsTestServer(t, serverConfig{JobWorkers: 1})
	code, out := postAs(t, srv.URL+"/solve", "alice", instanceBody(t, 3.0).Bytes())
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, out)
	}
	var solved solveResponse
	if err := json.Unmarshal(out, &solved); err != nil {
		t.Fatal(err)
	}
	query := "kind=session&fp=" + solved.Fingerprint
	code, out = postAs(t, srv.URL+"/jobs?"+query, "alice", []byte(growDelta))
	if code != http.StatusAccepted {
		t.Fatalf("session submit: %d %s", code, out)
	}
	var job jobStatusDoc
	if err := json.Unmarshal(out, &job); err != nil {
		t.Fatal(err)
	}

	list := func(path string) jobListDoc {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc jobListDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || len(doc.Jobs) != 1 {
			t.Fatalf("GET %s: %d jobs, err %v", path, len(doc.Jobs), err)
		}
		return doc
	}
	if doc := list("/jobs"); doc.Jobs[0].Params != "" {
		t.Errorf("unscoped listing shows params %q", doc.Jobs[0].Params)
	}
	if doc := list("/jobs?tenant=alice"); doc.Jobs[0].Params != query {
		t.Errorf("alice's listing params %q, want %q", doc.Jobs[0].Params, query)
	}
	if _, doc := getJobDoc(t, srv.URL, job.ID); doc.Params != query {
		t.Errorf("status document params %q, want %q", doc.Params, query)
	}
}

// TestOwnerSolveRacesForeignDelta: alice's solve and bob's delta reach one
// snapshot-only fingerprint at once, round after round. Bob's delta may
// start the snapshot load that alice's solve joins; bob must get the 404
// and alice her 200 either way, never the 404 of bob's build.
func TestOwnerSolveRacesForeignDelta(t *testing.T) {
	body := instanceBody(t, 3.0).Bytes()
	dir := t.TempDir()
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{
		MaxBody: 256 << 20, JobWorkers: 1, CacheEntries: 1, SnapshotDir: dir,
	})
	srv := httptest.NewServer(s.telemetry(s.mux(false)))
	t.Cleanup(srv.Close)
	waitFor(t, "warm-fill", func() bool { return s.snapWarmed.Load() })
	code, out := postAs(t, srv.URL+"/solve", "alice", body)
	if code != http.StatusOK {
		t.Fatalf("alice solve: %d %s", code, out)
	}
	var solved solveResponse
	if err := json.Unmarshal(out, &solved); err != nil {
		t.Fatal(err)
	}
	fp := solved.Fingerprint
	waitFor(t, "alice's snapshot", func() bool { return len(snapFiles(t, dir)) == 1 })

	// post is postAs for a goroutine other than the test's.
	post := func(url, tenant string, body []byte) (int, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set(fleet.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	for round := 0; round < 8; round++ {
		// The filler's entry evicts alice's: her fingerprint is
		// snapshot-only again.
		if code, out := postAs(t, srv.URL+"/solve", "filler", body); code != http.StatusOK {
			t.Fatalf("round %d: filler solve: %d %s", round, code, out)
		}
		var wg sync.WaitGroup
		var bobCode, aliceCode int
		var bobErr, aliceErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			bobCode, bobErr = post(srv.URL+"/instances/"+fp+"/delta", "bob", []byte(growDelta))
		}()
		go func() {
			defer wg.Done()
			aliceCode, aliceErr = post(srv.URL+"/solve", "alice", body)
		}()
		wg.Wait()
		if bobErr != nil || aliceErr != nil {
			t.Fatalf("round %d: bob %v, alice %v", round, bobErr, aliceErr)
		}
		if bobCode != http.StatusNotFound || aliceCode != http.StatusOK {
			t.Fatalf("round %d: bob's delta %d, alice's solve %d; want 404 and 200", round, bobCode, aliceCode)
		}
	}
}
