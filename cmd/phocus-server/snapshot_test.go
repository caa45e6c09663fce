package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// getStatus fetches a URL and returns just the response status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// snapServer builds a server with a snapshot store under dir (and a prepare
// cache, which warm restarts need) plus its handler chain.
func snapServer(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	s := mustServer(t, slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{
		MaxBody: 256 << 20, JobWorkers: 2,
		CacheEntries: 8, CacheBytes: 1 << 30,
		SnapshotDir: dir,
	})
	srv := httptest.NewServer(s.telemetry(s.mux(false)))
	t.Cleanup(srv.Close)
	return s, srv
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// snapFiles globs the store directory for installed snapshots.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestSnapshotWarmRestart is the warm-restart round trip: solve on one
// server process (cold Prepare + async snapshot write-back), "restart" by
// building a second server over the same directory, and observe the replay:
// readyz gated until the warm-fill finishes, the snapshot load counted, the
// first request a cache hit, and the answer identical to the cold one.
func TestSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := instanceBody(t, 8.2).String()

	s1, srv1 := snapServer(t, dir)
	waitFor(t, "first server ready", func() bool { return s1.snapWarmed.Load() })
	cold := postSolve(t, srv1.URL+"/solve?tau=0.6&budget=2.6", body)
	// The write-back is off the request path; wait for the rename to land,
	// and for the write to be counted, which follows the rename.
	waitFor(t, "snapshot write-back", func() bool { return len(snapFiles(t, dir)) == 1 })
	waitFor(t, "snapshot write count", func() bool { return s1.reg.Counter("phocus_snapshot_write_total").Value() > 0 })
	if got := s1.reg.Counter("phocus_snapshot_write_total").Value(); got != 1 {
		t.Errorf("snapshot writes = %d, want 1", got)
	}

	s2, srv2 := snapServer(t, dir)
	waitFor(t, "warm-fill", func() bool { return s2.snapWarmed.Load() })
	if got := s2.reg.Counter("phocus_snapshot_load_total").Value(); got != 1 {
		t.Errorf("snapshot loads after restart = %d, want 1 (warm-fill)", got)
	}

	// The restarted server answers from the warm-filled cache: no cold
	// Prepare, a cache hit on the very first request, same bytes decided.
	warm := postSolve(t, srv2.URL+"/solve?tau=0.6&budget=2.6", body)
	if got := s2.reg.Counter("phocus_prepare_cache_hits_total").Value(); got != 1 {
		t.Errorf("cache hits after restart = %d, want 1", got)
	}
	if got := s2.reg.Counter("phocus_prepare_cache_misses_total").Value(); got != 0 {
		t.Errorf("cache misses after restart = %d, want 0", got)
	}
	if warm.Score != cold.Score || warm.Cost != cold.Cost || len(warm.Retain) != len(cold.Retain) {
		t.Fatalf("warm result diverged from cold: %+v vs %+v", warm, cold)
	}
	for i := range cold.Retain {
		if warm.Retain[i] != cold.Retain[i] {
			t.Fatalf("warm selection diverged: %v vs %v", warm.Retain, cold.Retain)
		}
	}
}

// TestSnapshotCorruptQuarantine flips one byte of an installed snapshot and
// restarts: the warm-fill must detect it, quarantine the file, count it, and
// the next request must fall back to a cold Prepare that still answers
// exactly what the uncorrupted pipeline answered.
func TestSnapshotCorruptQuarantine(t *testing.T) {
	dir := t.TempDir()
	body := instanceBody(t, 8.2).String()

	s1, srv1 := snapServer(t, dir)
	waitFor(t, "first server ready", func() bool { return s1.snapWarmed.Load() })
	want := postSolve(t, srv1.URL+"/solve?tau=0.6", body)
	waitFor(t, "snapshot write-back", func() bool { return len(snapFiles(t, dir)) == 1 })

	// Flip one byte in the middle of the payload.
	path := snapFiles(t, dir)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, srv2 := snapServer(t, dir)
	waitFor(t, "warm-fill", func() bool { return s2.snapWarmed.Load() })
	if got := s2.reg.Counter("phocus_snapshot_corrupt_total").Value(); got != 1 {
		t.Errorf("corrupt snapshots counted = %d, want 1", got)
	}
	if got := s2.reg.Counter("phocus_snapshot_load_total").Value(); got != 0 {
		t.Errorf("snapshot loads = %d, want 0 (the only file was corrupt)", got)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if left := snapFiles(t, dir); len(left) != 0 {
		t.Errorf("corrupt snapshot still installed: %v", left)
	}

	// Cold fallback: a miss, not an error — and the same answer.
	got := postSolve(t, srv2.URL+"/solve?tau=0.6", body)
	if got.Score != want.Score || len(got.Retain) != len(want.Retain) {
		t.Fatalf("fallback result diverged: %+v vs %+v", got, want)
	}
	if hits := s2.reg.Counter("phocus_prepare_cache_misses_total").Value(); hits != 1 {
		t.Errorf("cache misses after quarantine = %d, want 1 (cold fallback)", hits)
	}
	// The cold Prepare re-persists a fresh snapshot for the next restart.
	waitFor(t, "snapshot re-write", func() bool { return len(snapFiles(t, dir)) == 1 })
}

// TestSnapshotV1Quarantine installs a snapshot of an older format version
// — version 1 (per-entry W·R slabs), version 2 (similarity copies beside
// the kernels) or version 3 (no owning tenant in META), a file whose every
// checksum holds but whose version this
// build no longer reads — and restarts: the warm-fill must quarantine it
// like any corrupt file, and the next /solve of the same body must answer
// from a cold Prepare with the selection the first server computed and
// write a current-version file back.
func TestSnapshotV1Quarantine(t *testing.T) {
	for _, version := range []uint32{1, 2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			body := instanceBody(t, 8.2).String()

			s1, srv1 := snapServer(t, dir)
			waitFor(t, "first server ready", func() bool { return s1.snapWarmed.Load() })
			want := postSolve(t, srv1.URL+"/solve?tau=0.6", body)
			waitFor(t, "snapshot write-back", func() bool { return len(snapFiles(t, dir)) == 1 })

			// Rewrite the version field and re-seal the header checksum (and
			// its complement) so only the version marks the file as stale.
			path := snapFiles(t, dir)[0]
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			current := binary.LittleEndian.Uint32(data[8:])
			binary.LittleEndian.PutUint32(data[8:], version)
			tableEnd := 48 + 24*int(binary.LittleEndian.Uint32(data[12:]))
			hcrc := crc32.Checksum(data[:tableEnd], crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(data[tableEnd:], hcrc)
			binary.LittleEndian.PutUint32(data[tableEnd+4:], ^hcrc)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			s2, srv2 := snapServer(t, dir)
			waitFor(t, "warm-fill", func() bool { return s2.snapWarmed.Load() })
			if got := s2.reg.Counter("phocus_snapshot_corrupt_total").Value(); got != 1 {
				t.Errorf("corrupt snapshots counted = %d, want 1", got)
			}
			if got := s2.reg.Counter("phocus_snapshot_load_total").Value(); got != 0 {
				t.Errorf("snapshot loads = %d, want 0 (the only file was version %d)", got, version)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("quarantined file missing: %v", err)
			}

			got := postSolve(t, srv2.URL+"/solve?tau=0.6", body)
			if hits := s2.reg.Counter("phocus_prepare_cache_misses_total").Value(); hits != 1 {
				t.Errorf("cache misses after quarantine = %d, want 1 (cold Prepare)", hits)
			}
			if got.Score != want.Score || got.Cost != want.Cost || !reflect.DeepEqual(got.Retain, want.Retain) {
				t.Fatalf("cold answer after quarantine %+v, want %+v", got, want)
			}
			waitFor(t, "current-version re-write", func() bool { return len(snapFiles(t, dir)) == 1 })
			rewritten, err := os.ReadFile(snapFiles(t, dir)[0])
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint32(rewritten[8:]); v != current || v <= version {
				t.Fatalf("re-written snapshot is version %d, want the current %d", v, current)
			}
		})
	}
}

// TestSnapshotCorruptRequestPaths covers the request-time quarantine that
// TestSnapshotCorruptQuarantine's warm-fill never reaches: the instance is
// evicted from the prepare cache and one byte of its snapshot flipped, so the
// next request must load the file itself. Both request paths share one load
// helper and must quarantine the file and count it once; /solve then answers
// exactly what the cold solve answered and writes a fresh snapshot back,
// while a delta answers 404 and leaves no snapshot installed.
func TestSnapshotCorruptRequestPaths(t *testing.T) {
	for _, tc := range []struct {
		name      string
		installed int // snapshots in the store once the request settles
		request   func(t *testing.T, base, fp, body string, cold solveResponse)
	}{
		{"solve", 1, func(t *testing.T, base, fp, body string, cold solveResponse) {
			got := postSolve(t, base+"/solve?tau=0.6", body)
			got.RequestID, got.Stats = "", nil
			cold.RequestID, cold.Stats = "", nil
			if !reflect.DeepEqual(got, cold) {
				t.Fatalf("solve after quarantine %+v, want the cold answer %+v", got, cold)
			}
		}},
		{"delta", 0, func(t *testing.T, base, fp, body string, cold solveResponse) {
			if code, _ := postDelta(t, base, fp, growDelta); code != http.StatusNotFound {
				t.Fatalf("delta after quarantine: status %d, want 404", code)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			body := instanceBody(t, 8.2).String()
			s, srv := snapServer(t, dir)
			waitFor(t, "server ready", func() bool { return s.snapWarmed.Load() })
			cold := postSolve(t, srv.URL+"/solve?tau=0.6", body)
			waitFor(t, "snapshot write-back", func() bool { return len(snapFiles(t, dir)) == 1 })

			path := snapFiles(t, dir)[0]
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if !s.pipe.Cache.Remove(cold.Fingerprint) {
				t.Fatal("the solved instance was not cached")
			}
			corrupt := s.reg.Counter("phocus_snapshot_corrupt_total")
			before := corrupt.Value()

			tc.request(t, srv.URL, cold.Fingerprint, body, cold)

			if got := corrupt.Value() - before; got != 1 {
				t.Errorf("corrupt snapshots counted = %d, want 1", got)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("quarantined file missing: %v", err)
			}
			// The cold fallback writes its snapshot back off the request
			// path; let it land before the directory goes.
			waitFor(t, "settled store", func() bool { return len(snapFiles(t, dir)) == tc.installed })
		})
	}
}

// TestReadyzGatedOnWarmFill: /readyz must answer 503 while the warm-fill is
// still refilling the cache, then flip to 200 — a restarted replica joins
// the rotation warm, never cold.
func TestReadyzGatedOnWarmFill(t *testing.T) {
	s, _ := newTestServer(t, nil) // no snapshot dir
	if !s.snapWarmed.Load() {
		t.Fatal("snapWarmed not set immediately when snapshots are off")
	}

	dir := t.TempDir()
	s2, srv2 := snapServer(t, dir)
	waitFor(t, "warm-fill of empty dir", func() bool { return s2.snapWarmed.Load() })
	resp := getStatus(t, srv2.URL+"/readyz")
	if resp != 200 {
		t.Fatalf("readyz after warm-fill: %d, want 200", resp)
	}

	// Before the flag flips, readyz must gate. Simulate by clearing it.
	s2.snapWarmed.Store(false)
	if resp := getStatus(t, srv2.URL+"/readyz"); resp != 503 {
		t.Fatalf("readyz while warming: %d, want 503", resp)
	}
	s2.snapWarmed.Store(true)
}
