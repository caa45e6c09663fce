package phocus

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"phocus/internal/dataset"
	"phocus/internal/obs"
	"phocus/internal/par"
)

// The pipeline tests are the path axis of the conformance matrix: every way
// a request can reach a Prepared — cold, cache hit, snapshot load, corrupt
// snapshot, delta from the cache, delta from a snapshot alone — must answer
// with the selection and score bits of a cold Prepare + Run outside any
// pipeline, and an unknown or foreign fingerprint must resolve to nothing.

const pipeTau = 0.35

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// testPipeline returns a pipeline over an empty cache, with a snapshot store
// under dir unless dir is "".
func testPipeline(t *testing.T, dir string) *Pipeline {
	t.Helper()
	pl := &Pipeline{
		Cache:   NewPreparedCache(8, 0),
		Metrics: obs.NewRegistry(),
		SLO:     obs.NewSLOTracker(obs.SLOTrackerOptions{}),
		Logger:  quietLogger,
		Workers: 1,
	}
	if dir != "" {
		store, err := OpenSnapshotStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		pl.Snapshots = store
	}
	return pl
}

// pipelineArchive is a random instance's wire body, the instance the body
// decodes to, and the budget the tests solve at.
func pipelineArchive(t *testing.T) ([]byte, *par.Instance, float64) {
	t.Helper()
	inst := par.Random(rand.New(rand.NewSource(7)), par.RandomConfig{
		Photos: 40, Subsets: 12, BudgetFrac: 0.4, RetainFrac: 0.1, SimDensity: 0.6,
	})
	var buf bytes.Buffer
	if err := par.WriteJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	dec, _, err := par.DecodeJSONVectors(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), dec, 0.35 * dec.TotalCost()
}

// coldRun is the reference answer: Prepare + Run of inst outside any
// pipeline.
func coldRun(t *testing.T, inst *par.Instance, budget float64) *Result {
	t.Helper()
	ctx := context.Background()
	p, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, PrepareOptions{Tau: pipeTau, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(ctx, RunOptions{Budget: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult requires got's selection, score, cost and bound to equal
// want's bit for bit.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Solution.Photos, want.Solution.Photos) ||
		math.Float64bits(got.Solution.Score) != math.Float64bits(want.Solution.Score) ||
		math.Float64bits(got.Solution.Cost) != math.Float64bits(want.Solution.Cost) ||
		math.Float64bits(got.OnlineBound) != math.Float64bits(want.OnlineBound) {
		t.Errorf("%s: retain %v score %v cost %v bound %v, want %v %v %v %v", label,
			got.Solution.Photos, got.Solution.Score, got.Solution.Cost, got.OnlineBound,
			want.Solution.Photos, want.Solution.Score, want.Solution.Cost, want.OnlineBound)
	}
}

func pipeCtx() context.Context { return obs.WithLogger(context.Background(), quietLogger) }

// solveAs runs one solve of body for tenant at budget through pl.
func solveAs(t *testing.T, pl *Pipeline, tenant string, body []byte, budget float64) *Answer {
	t.Helper()
	a, err := pl.Solve(pipeCtx(), SolveRequest{Tenant: tenant, Body: body, Start: time.Now(), Budget: budget, Tau: pipeTau})
	if err != nil {
		t.Fatalf("solve as %s: %v", tenant, err)
	}
	return a
}

// runAs resolves fp for tenant and runs it at budget.
func runAs(t *testing.T, pl *Pipeline, tenant, fp string, budget float64) *Result {
	t.Helper()
	p, _, err := pl.resolve(pipeCtx(), fp, tenant, nil)
	if err != nil {
		t.Fatalf("resolve %.12s as %s: %v", fp, tenant, err)
	}
	res, err := p.Run(context.Background(), RunOptions{Budget: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireUnknown requires err to be the unknown-fingerprint answer for fp.
func requireUnknown(t *testing.T, label, fp string, err error) {
	t.Helper()
	if !errors.Is(err, ErrUnknownFingerprint) || err.Error() != unknownFingerprint(fp).Error() {
		t.Errorf("%s: error %v, want the unknown-fingerprint answer", label, err)
	}
}

// waitSnapshot waits for the write-back of fp's snapshot.
func waitSnapshot(t *testing.T, pl *Pipeline, fp string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if _, err := os.Stat(pl.Snapshots.Path(fp)); err == nil {
			return
		}
	}
	t.Fatalf("snapshot %.12s never written", fp)
}

func TestPipelineSolvePaths(t *testing.T) {
	body, inst, budget := pipelineArchive(t)
	want := coldRun(t, inst, budget)
	dir := t.TempDir()

	// Cold: one miss, parsed inside the Prepare, written back.
	pl := testPipeline(t, dir)
	cold := solveAs(t, pl, "alice", body, budget)
	sameResult(t, "cold", cold.Result, want)
	if st := pl.Cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("cold solve: cache stats %+v, want one miss", st)
	}
	if cold.Budget != budget || cold.Winner == "" || cold.GainEvals == 0 {
		t.Errorf("cold answer budget %v winner %q gain evals %d", cold.Budget, cold.Winner, cold.GainEvals)
	}
	waitSnapshot(t, pl, cold.Fingerprint)

	// Hit: the key decides, the body is never parsed. A malformed body
	// whose key the cache holds answers like the archive cached under it;
	// without a budget it must be parsed, and fails.
	bad := []byte("not an instance")
	prep, _, err := pl.resolve(pipeCtx(), cold.Fingerprint, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	pl.Cache.Put(FingerprintFor(instanceDigest("alice", bad), PrepareOptions{Tau: pipeTau}), prep)
	sameResult(t, "hit", solveAs(t, pl, "alice", bad, budget).Result, want)
	if st := pl.Cache.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hit: cache stats %+v, want two hits (resolve + solve) and the cold miss", st)
	}
	if _, err := pl.Solve(pipeCtx(), SolveRequest{Tenant: "alice", Body: bad, Tau: pipeTau}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("malformed body without a budget: error %v, want ErrInvalidInput", err)
	}

	// Snapshot load: a fresh pipeline over the same directory misses the
	// cache and loads the file instead of preparing.
	pl2 := testPipeline(t, dir)
	loaded := solveAs(t, pl2, "alice", body, budget)
	sameResult(t, "snapshot", loaded.Result, want)
	if got := pl2.Metrics.Counter("phocus_snapshot_load_total").Value(); got != 1 {
		t.Errorf("snapshot loads = %d, want 1", got)
	}
	// The loaded Prepared kept its owner.
	_, _, err = pl2.resolve(pipeCtx(), cold.Fingerprint, "bob", nil)
	requireUnknown(t, "bob after a snapshot load", cold.Fingerprint, err)

	// Corrupt snapshot: quarantined once, then the solve prepares cold and
	// writes a fresh file back.
	path := pl.Snapshots.Path(cold.Fingerprint)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pl3 := testPipeline(t, dir)
	sameResult(t, "corrupt snapshot", solveAs(t, pl3, "alice", body, budget).Result, want)
	if got := pl3.Metrics.Counter("phocus_snapshot_corrupt_total").Value(); got != 1 {
		t.Errorf("corrupt snapshots counted = %d, want 1", got)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if got := pl3.Metrics.Counter("phocus_snapshot_load_total").Value(); got != 0 {
		t.Errorf("snapshot loads after corruption = %d, want 0", got)
	}
	waitSnapshot(t, pl3, cold.Fingerprint)

	// Warm-fill restores the owner along with the instance.
	pl4 := testPipeline(t, dir)
	pl4.WarmFill()
	sameResult(t, "warm-fill", runAs(t, pl4, "alice", cold.Fingerprint, budget), want)
	_, _, err = pl4.resolve(pipeCtx(), cold.Fingerprint, "bob", nil)
	requireUnknown(t, "bob after warm-fill", cold.Fingerprint, err)
}

func TestPipelineDeltaPaths(t *testing.T) {
	body, inst, budget := pipelineArchive(t)
	d := randomChurn(rand.New(rand.NewSource(3)), inst, nil, 2, 2, true)
	merged, _, err := MergeDelta(inst, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := coldRun(t, merged, budget)

	for _, where := range []string{"cached", "snapshot-only"} {
		t.Run(where, func(t *testing.T) {
			dir := t.TempDir()
			pl := testPipeline(t, dir)
			fp := solveAs(t, pl, "alice", body, budget).Fingerprint
			waitSnapshot(t, pl, fp)
			if where == "snapshot-only" {
				pl = testPipeline(t, dir)
			}

			// A foreign tenant and an unknown fingerprint resolve to nothing
			// and change nothing.
			_, err := pl.Apply(pipeCtx(), "bob", fp, delta)
			requireUnknown(t, "bob's delta", fp, err)
			unknown := strings.Repeat("ab", 32)
			_, err = pl.Apply(pipeCtx(), "alice", unknown, delta)
			requireUnknown(t, "unknown fingerprint", unknown, err)

			stats, err := pl.Apply(pipeCtx(), "alice", fp, delta)
			if err != nil {
				t.Fatalf("alice's delta: %v", err)
			}
			if stats.OldFingerprint != fp || stats.Photos != merged.NumPhotos() || stats.SizeBytes <= 0 {
				t.Errorf("delta stats %+v", stats)
			}
			sameResult(t, "after the delta", runAs(t, pl, "alice", stats.NewFingerprint, budget), want)

			// The rekey dropped the old fingerprint, the snapshot moved with
			// it, and the owner stayed.
			_, _, err = pl.resolve(pipeCtx(), fp, "alice", nil)
			requireUnknown(t, "pre-churn fingerprint", fp, err)
			if _, err := os.Stat(pl.Snapshots.Path(fp)); !os.IsNotExist(err) {
				t.Errorf("pre-churn snapshot still on disk: %v", err)
			}
			if _, err := os.Stat(pl.Snapshots.Path(stats.NewFingerprint)); err != nil {
				t.Errorf("post-churn snapshot missing: %v", err)
			}
			_, _, err = pl.resolve(pipeCtx(), stats.NewFingerprint, "bob", nil)
			requireUnknown(t, "bob after the delta", stats.NewFingerprint, err)

			// A compaction keeps the owner too.
			p, _, err := pl.resolve(pipeCtx(), stats.NewFingerprint, "alice", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
			sameResult(t, "after a compaction", runAs(t, pl, "alice", stats.NewFingerprint, budget), want)
			_, _, err = pl.resolve(pipeCtx(), stats.NewFingerprint, "bob", nil)
			requireUnknown(t, "bob after a compaction", stats.NewFingerprint, err)
		})
	}
}

// TestPipelineOwnerSetAtColdPrepare: the tenant of the request that built a
// Prepared owns it, and the owner is not part of the fingerprint.
func TestPipelineOwnerSetAtColdPrepare(t *testing.T) {
	body, _, budget := pipelineArchive(t)
	pl := testPipeline(t, "")
	a := solveAs(t, pl, "alice", body, budget)
	p, _, err := pl.resolve(pipeCtx(), a.Fingerprint, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.owner != "alice" {
		t.Errorf("owner %q, want alice", p.owner)
	}
	if want := FingerprintFor(instanceDigest("alice", body), PrepareOptions{Tau: pipeTau}); a.Fingerprint != want {
		t.Errorf("fingerprint %s, want %s (the owner must not enter it)", a.Fingerprint, want)
	}
}

// TestPipelineConcurrent drives both entries from several goroutines at
// once: solves by two tenants of one body, while alice chains deltas onto
// her instance and bob keeps trying to. Every solve answers, every one of
// alice's deltas applies and each of bob's resolves to nothing. Run it
// under -race.
func TestPipelineConcurrent(t *testing.T) {
	body, inst, budget := pipelineArchive(t)
	pl := testPipeline(t, t.TempDir())
	fp := solveAs(t, pl, "alice", body, budget).Fingerprint
	d := randomChurn(rand.New(rand.NewSource(5)), inst, nil, 0, 1, false)
	delta, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		tenant := []string{"alice", "bob"}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := pl.Solve(pipeCtx(), SolveRequest{Tenant: tenant, Body: body, Start: time.Now(), Budget: budget, Tau: pipeTau}); err != nil {
					t.Errorf("%s's solve: %v", tenant, err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := fp
		for i := 0; i < 5; i++ {
			if _, err := pl.Apply(pipeCtx(), "bob", cur, delta); !errors.Is(err, ErrUnknownFingerprint) {
				t.Errorf("bob's delta %d: error %v, want ErrUnknownFingerprint", i, err)
			}
			stats, err := pl.Apply(pipeCtx(), "alice", cur, delta)
			if err != nil {
				t.Errorf("alice's delta %d: %v", i, err)
				return
			}
			cur = stats.NewFingerprint
		}
	}()
	wg.Wait()
}
