package jobs

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"phocus/internal/fleet"
)

// TestStoreReplayAssignsDefaultTenant replays a hand-written pre-tenancy
// (v1) WAL — records with no tenant field at all — and checks every
// recovered job lands in the default tenant. This is the upgrade path: a
// shard restarted onto the tenancy-aware binary must keep serving its old
// jobs.
func TestStoreReplayAssignsDefaultTenant(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"t":"submit","job":{"id":"aaaaaaaaaaaaaaaa","seq":1,"params":"algo=greedy","body":"e30=","body_bytes":2,"state":"queued","submitted_at":"2026-01-01T00:00:00Z"}}
{"t":"submit","job":{"id":"bbbbbbbbbbbbbbbb","seq":2,"params":"","body":"e30=","body_bytes":2,"state":"queued","submitted_at":"2026-01-01T00:00:01Z"}}
{"t":"update","up":{"id":"aaaaaaaaaaaaaaaa","state":"running","attempts":1,"at":"2026-01-01T00:00:02Z"}}
{"t":"update","up":{"id":"aaaaaaaaaaaaaaaa","state":"done","result":"e30=","at":"2026-01-01T00:00:03Z"}}
`
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	s, stats, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if stats.Jobs != 2 || stats.Corrupt != 0 {
		t.Fatalf("replay stats %+v, want 2 clean jobs", stats)
	}
	for _, id := range []string{"aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"} {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s lost in replay", id)
		}
		if j.Tenant != fleet.DefaultTenant {
			t.Errorf("job %s: tenant %q, want %q", id, j.Tenant, fleet.DefaultTenant)
		}
	}
	// The adopted tenant is durable: the post-replay compact snapshots it,
	// so the next boot replays tenant-tagged records.
	s.Close()
	s2, _, err := Open(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if j, _ := s2.Get("aaaaaaaaaaaaaaaa"); j.Tenant != fleet.DefaultTenant {
		t.Errorf("second replay: tenant %q", j.Tenant)
	}
}

func TestSubmitTenantThreadsThrough(t *testing.T) {
	runner := func(ctx context.Context, job Job) ([]byte, error) { return []byte("{}"), nil }
	s, _, err := NewService(Config{Workers: 1, Store: StoreOptions{NoSync: true}}, runner)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	ja, err := s.Submit("alice", "algo=greedy", []byte("{}"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if ja.Tenant != "alice" {
		t.Fatalf("submitted tenant %q", ja.Tenant)
	}
	jb, err := s.Submit("", "", []byte("{}"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if jb.Tenant != fleet.DefaultTenant {
		t.Fatalf("empty tenant stored as %q, want default", jb.Tenant)
	}
	jc, err := s.Submit("carol", "", []byte("{}"), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if jc.Tenant != "carol" {
		t.Fatalf("deferred tenant %q", jc.Tenant)
	}

	aliceJobs, aliceTotal := s.ListTenant("alice", 0, 0)
	if aliceTotal != 1 || len(aliceJobs) != 1 || aliceJobs[0].ID != ja.ID {
		t.Fatalf("ListTenant(alice) = %d jobs, total %d", len(aliceJobs), aliceTotal)
	}
	defJobs, defTotal := s.ListTenant("", 0, 0)
	if defTotal != 1 || defJobs[0].ID != jb.ID {
		t.Fatalf("ListTenant(default) total %d", defTotal)
	}
	_, allTotal := s.List(0, 0)
	if allTotal != 3 {
		t.Fatalf("List total %d, want 3 across tenants", allTotal)
	}
	if _, total := s.ListTenant("nobody", 0, 0); total != 0 {
		t.Fatalf("unknown tenant total %d", total)
	}
}
