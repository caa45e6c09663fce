package jobs

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSubmitNotBeforeRunsAfterDeadline(t *testing.T) {
	ran := make(chan time.Time, 1)
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		ran <- time.Now()
		return []byte("{}"), nil
	}, nil)
	at := time.Now().Add(40 * time.Millisecond)
	j, err := s.Submit("", "kind=retention", []byte("{}"), at)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || !j.NotBefore.Equal(at) {
		t.Fatalf("deferred job %+v", j)
	}
	got, _, err := s.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Deferred(time.Now()) {
		t.Fatalf("job not deferred: %+v", got)
	}
	waitState(t, s, j.ID, StateDone)
	started := <-ran
	if started.Before(at) {
		t.Errorf("job ran %v before its NotBefore deadline", at.Sub(started))
	}
}

func TestSubmitNotBeforePastDeadlineRunsImmediately(t *testing.T) {
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		return []byte("{}"), nil
	}, nil)
	j, err := s.Submit("", "", []byte("{}"), time.Now().Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !j.NotBefore.IsZero() {
		t.Errorf("past deadline should admit the job as runnable now, got NotBefore %v", j.NotBefore)
	}
	waitState(t, s, j.ID, StateDone)
}

func TestCancelDeferredJob(t *testing.T) {
	ran := make(chan struct{}, 1)
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		ran <- struct{}{}
		return []byte("{}"), nil
	}, nil)
	j, err := s.Submit("", "", []byte("{}"), time.Now().Add(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := s.Cancel(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("state %s, want canceled", canceled.State)
	}
	select {
	case <-ran:
		t.Fatal("canceled deferred job still ran")
	case <-time.After(120 * time.Millisecond):
	}
	s.mu.Lock()
	pending := len(s.timers)
	s.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d timers still armed after cancel", pending)
	}
}

// TestDeferredSurvivesRestart covers both replay halves: a deadline still
// ahead is re-armed (the job stays deferred, then runs), and one that came
// due while the process was down is requeued immediately on boot.
func TestDeferredSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	runner := func(ctx context.Context, j Job) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return []byte("{}"), nil
	}
	s1, _, err := NewService(Config{Dir: dir, Workers: 1, Store: StoreOptions{NoSync: true}}, runner)
	if err != nil {
		t.Fatal(err)
	}
	future, err := s1.Submit("", "later", []byte("{}"), time.Now().Add(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	pastDue, err := s1.Submit("", "soon", []byte("{}"), time.Now().Add(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s1.Terminate() // crash: both jobs sit queued in the WAL with their deadlines

	time.Sleep(40 * time.Millisecond) // pastDue's deadline lapses while "down"
	close(block)
	s2, replay, err := NewService(Config{Dir: dir, Workers: 1, Store: StoreOptions{NoSync: true}}, runner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Close(ctx)
	})
	if replay.Queued != 2 {
		t.Fatalf("replayed %d queued jobs, want 2", replay.Queued)
	}
	waitState(t, s2, pastDue.ID, StateDone)
	waitState(t, s2, future.ID, StateDone)
	j, _, err := s2.Get(future.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.StartedAt.Before(j.NotBefore) {
		t.Errorf("re-armed job started %v before its deadline", j.NotBefore.Sub(j.StartedAt))
	}
}

func TestSubmitNotBeforeWhileDrainingRejected(t *testing.T) {
	s := newTestService(t, func(ctx context.Context, j Job) ([]byte, error) {
		return []byte("{}"), nil
	}, nil)
	s.BeginDrain()
	if _, err := s.Submit("", "", []byte("{}"), time.Now().Add(time.Hour)); !errors.Is(err, ErrDraining) {
		t.Fatalf("err %v, want ErrDraining", err)
	}
}
