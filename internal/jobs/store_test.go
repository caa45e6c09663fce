package jobs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// submitN pushes n queued jobs through the store and returns their IDs.
func submitN(t *testing.T, s *Store, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = newJobID()
		j := &Job{ID: ids[i], State: StateQueued, Body: []byte("{}"), BodyBytes: 2, SubmittedAt: time.Now()}
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, stats, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 0 {
		t.Fatalf("fresh store replayed %d jobs", stats.Jobs)
	}
	ids := submitN(t, s, 2)

	// First job runs to done with a result payload.
	if _, err := s.Update(&jobUpdate{ID: ids[0], State: StateRunning, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(&jobUpdate{ID: ids[0], State: StateDone, Result: []byte(`{"score":1}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, stats, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.Jobs != 2 || stats.Queued != 1 || stats.Requeued != 0 || stats.Corrupt != 0 {
		t.Fatalf("replay stats %+v, want 2 jobs / 1 queued / 0 requeued / 0 corrupt", stats)
	}
	done, ok := s2.Get(ids[0])
	if !ok || done.State != StateDone {
		t.Fatalf("done job after reopen: %+v", done)
	}
	if string(done.Result) != `{"score":1}` {
		t.Errorf("result %q lost across reopen", done.Result)
	}
	if done.Body != nil {
		t.Errorf("terminal job still carries its payload (%d bytes)", len(done.Body))
	}
	queued, ok := s2.Get(ids[1])
	if !ok || queued.State != StateQueued {
		t.Fatalf("queued job after reopen: %+v", queued)
	}
	if string(queued.Body) != "{}" {
		t.Errorf("queued job payload %q, want it preserved", queued.Body)
	}
}

// TestStoreCrashRequeueExactlyOnce covers the crash-recovery criterion: a
// job found running in the WAL is re-queued during replay, and — because
// Open compacts immediately — a second crash cannot requeue it again.
func TestStoreCrashRequeueExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitN(t, s, 1)
	if _, err := s.Update(&jobUpdate{ID: ids[0], State: StateRunning, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	s.Abandon() // crash: no final snapshot, no checkpoint record

	s2, stats, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 || stats.Queued != 1 {
		t.Fatalf("first recovery stats %+v, want 1 requeued", stats)
	}
	j, _ := s2.Get(ids[0])
	if j.State != StateQueued || !j.StartedAt.IsZero() {
		t.Fatalf("recovered job %+v, want queued with StartedAt cleared", j)
	}
	s2.Abandon() // crash again before the job runs

	_, stats, err = Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 0 || stats.Queued != 1 {
		t.Fatalf("second recovery stats %+v, want 0 requeued (exactly-once)", stats)
	}
}

// TestStoreCorruptWALTail: a torn final append and garbage lines are
// skipped and counted; every intact record still replays.
func TestStoreCorruptWALTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitN(t, s, 3)
	s.Abandon()

	// Simulate a crash mid-append: garbage, a structurally unknown record,
	// and a torn final line with no newline.
	wal := filepath.Join(dir, "wal.jsonl")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json at all\n")
	f.WriteString(`{"t":"mystery"}` + "\n")
	f.WriteString(`{"t":"submit","job":{"id":"torn`)
	f.Close()

	s2, stats, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.Corrupt != 3 {
		t.Errorf("corrupt count %d, want 3", stats.Corrupt)
	}
	if stats.Jobs != 3 || stats.Queued != 3 {
		t.Errorf("replay stats %+v, want the 3 intact jobs", stats)
	}
	for _, id := range ids {
		if j, ok := s2.Get(id); !ok || j.State != StateQueued {
			t.Errorf("job %s lost to corruption: %+v", id, j)
		}
	}
}

// TestStoreSnapshotCompaction: after SnapshotEvery appends the WAL is
// truncated into a snapshot and replay still sees every job.
func TestStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, StoreOptions{NoSync: true, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitN(t, s, 6) // crosses the compaction threshold
	fi, err := os.Stat(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// 6 appends with a compaction at 4: at most 2 records remain in the WAL.
	if fi.Size() == 0 {
		t.Log("wal fully compacted")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot after crossing SnapshotEvery: %v", err)
	}
	s.Abandon()

	s2, stats, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.Jobs != 6 {
		t.Fatalf("replayed %d jobs across snapshot+wal, want 6", stats.Jobs)
	}
	list := s2.List()
	for i, j := range list {
		if j.ID != ids[i] {
			t.Fatalf("submission order lost: pos %d has %s, want %s", i, j.ID, ids[i])
		}
	}
}

// TestStorePruneTerminal: finished jobs beyond MaxTerminal are dropped,
// oldest first; live jobs are never pruned.
func TestStorePruneTerminal(t *testing.T) {
	s, _, err := Open("", StoreOptions{MaxTerminal: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitN(t, s, 5)
	for _, id := range ids[:4] {
		if _, err := s.Update(&jobUpdate{ID: id, State: StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 { // 2 retained terminal + 1 still queued
		t.Fatalf("len %d after prune, want 3", s.Len())
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Error("oldest terminal job survived pruning")
	}
	if _, ok := s.Get(ids[4]); !ok {
		t.Error("queued job was pruned")
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, stats, err := Open("", StoreOptions{})
	if err != nil || stats.Jobs != 0 {
		t.Fatalf("memory store: %v %+v", err, stats)
	}
	ids := submitN(t, s, 1)
	if _, err := s.Update(&jobUpdate{ID: ids[0], State: StateDone}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreUpdateUnknownID(t *testing.T) {
	s, _, _ := Open("", StoreOptions{})
	if _, err := s.Update(&jobUpdate{ID: "ghost", State: StateDone}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v, want ErrNotFound", err)
	}
}

// TestStoreTempFileSweep covers the crash window inside compact: the process
// dies after writing snapshot.json.tmp but before the rename installs it.
// The orphaned temp file must be swept (and counted) on the next Open, the
// installed snapshot must win, and no state may be lost.
func TestStoreTempFileSweep(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitN(t, s, 2)
	if _, err := s.Update(&jobUpdate{ID: ids[0], State: StateRunning, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(&jobUpdate{ID: ids[0], State: StateDone, Result: []byte(`{"ok":true}`)}); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash mid-compact: the temp write landed, the rename did
	// not. The temp deliberately holds garbage — if replay ever read it
	// instead of sweeping it, loadSnapshot would fail loudly.
	tmp := s.snapPath() + ".tmp"
	if err := os.WriteFile(tmp, []byte("{torn half-written snaps"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A second orphan from an older crash, with a different base name.
	stray := filepath.Join(dir, "wal.jsonl.tmp")
	if err := os.WriteFile(stray, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Abandon()

	s2, stats, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.TempSwept != 2 {
		t.Fatalf("replay stats %+v, want 2 temp files swept", stats)
	}
	if stats.Jobs != 2 || stats.Queued != 1 {
		t.Fatalf("replay stats %+v, want both jobs recovered with 1 queued", stats)
	}
	for _, orphan := range []string{tmp, stray} {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Errorf("orphan %s still present after replay", orphan)
		}
	}
	j, ok := s2.Get(ids[0])
	if !ok || j.State != StateDone || string(j.Result) != `{"ok":true}` {
		t.Fatalf("done job after sweep: %+v", j)
	}

	// A clean reopen sweeps nothing: compact's own temp never outlives the
	// rename on the non-crash path.
	s2.Close()
	_, stats, err = Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TempSwept != 0 {
		t.Fatalf("clean reopen swept %d temp files, want 0", stats.TempSwept)
	}
}

// TestStoreSyncedCompactionRoundTrip runs compaction with fsync on: the
// snapshot installed by the rename holds every job on its own, with the WAL
// truncated behind it, and a reopen after an unclean stop recovers the
// whole table without leaving a temp file.
func TestStoreSyncedCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, StoreOptions{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ids := submitN(t, s, 3)
	if _, err := s.Update(&jobUpdate{ID: ids[0], State: StateRunning, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(&jobUpdate{ID: ids[0], State: StateDone, Result: []byte(`{"ok":1}`)}); err != nil {
		t.Fatal(err)
	}
	// The fourth append reached SnapshotEvery: one compaction ran, and the
	// WAL holds only the fifth.
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("installed snapshot does not parse: %v", err)
	}
	if len(snap.Jobs) != 3 {
		t.Errorf("snapshot holds %d jobs, want all 3", len(snap.Jobs))
	}
	s.Abandon()

	s2, stats, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.Jobs != 3 || stats.Queued != 2 || stats.TempSwept != 0 || stats.Corrupt != 0 {
		t.Fatalf("replay stats %+v, want 3 jobs / 2 queued / no temp / no corruption", stats)
	}
	if j, ok := s2.Get(ids[0]); !ok || j.State != StateDone || string(j.Result) != `{"ok":1}` {
		t.Errorf("done job after reopen: %+v", j)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json.tmp")); !os.IsNotExist(err) {
		t.Errorf("temp snapshot left behind: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.jsonl")); err != nil || fi.Size() != 0 {
		t.Errorf("WAL after the reopen's compaction: %v, size %d, want empty", err, fi.Size())
	}
}
