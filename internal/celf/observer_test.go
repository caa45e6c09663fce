package celf

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"phocus/internal/par"
)

type recordingObserver struct {
	events []string
}

func (r *recordingObserver) Recomputed(p par.PhotoID, gain float64) {
	r.events = append(r.events, fmt.Sprintf("recompute p%d %.2f", p+1, gain))
}

func (r *recordingObserver) Selected(p par.PhotoID, gain float64) {
	r.events = append(r.events, fmt.Sprintf("select p%d %.2f", p+1, gain))
}

func (r *recordingObserver) selections() []string {
	var sel []string
	for _, ev := range r.events {
		if strings.HasPrefix(ev, "select") {
			sel = append(sel, ev)
		}
	}
	return sel
}

// TestObserverFigure3FullBudget replays Figure 3's event sequence on the
// paper's example with a budget admitting every photo (the figure's trace
// ignores budget): after p1 is selected, p2 and p3 are recomputed (to 0.81
// and 0.36) but p6's stale 4.61 survives recomputation and wins step 2; in
// step 3 p5 recomputes down (to 0.21 — see the Figure1Instance doc on the
// figure's printed 0.12) and p2 wins.
func TestObserverFigure3FullBudget(t *testing.T) {
	inst := par.Figure1Instance() // budget 8.1 fits everything
	var rec recordingObserver
	if _, _, err := LazyGreedy(context.Background(), inst, UC, &rec); err != nil {
		t.Fatal(err)
	}
	// Initial phase: 7 recomputations (every entry starts at ∞), then p1.
	for i := 0; i < 7; i++ {
		if !strings.HasPrefix(rec.events[i], "recompute") {
			t.Fatalf("event %d = %q, want initial recomputation", i, rec.events[i])
		}
	}
	if rec.events[7] != "select p1 7.83" {
		t.Fatalf("event 7 = %q, want select p1 7.83", rec.events[7])
	}
	// Step 2: the two stale 6.75 entries (p2, p3) are recomputed in
	// heap-dependent order, then p6's recomputation confirms 4.61 and wins.
	step2 := rec.events[8:12]
	wantSet := map[string]bool{"recompute p2 0.81": true, "recompute p3 0.36": true}
	for _, ev := range step2[:2] {
		if !wantSet[ev] {
			t.Fatalf("step-2 recomputations = %v, want p2→0.81 and p3→0.36", step2[:2])
		}
		delete(wantSet, ev)
	}
	if step2[2] != "recompute p6 4.61" || step2[3] != "select p6 4.61" {
		t.Fatalf("step-2 tail = %v, want p6 recompute then select", step2[2:])
	}
	// Step 3: p5's stale 0.82 recomputes to 0.21, then p2 is selected.
	if rec.events[12] != "recompute p5 0.21" {
		t.Errorf("event 12 = %q, want recompute p5 0.21", rec.events[12])
	}
	sel := rec.selections()
	if len(sel) != 7 {
		t.Fatalf("selected %d photos under the saturating budget, want 7: %v", len(sel), sel)
	}
	if sel[2] != "select p2 0.81" {
		t.Errorf("third selection = %q, want select p2 0.81", sel[2])
	}
}

// TestObserverBudgetedTrace checks the budgeted run (Figure 3's inputs at
// budget 3.0): photos that no longer fit are dropped at pop time without
// recomputation, so the trace is shorter but the selections match the
// worked example.
func TestObserverBudgetedTrace(t *testing.T) {
	inst := par.Figure1Instance()
	inst.Budget = 3.0
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var rec recordingObserver
	sol, _, err := LazyGreedy(context.Background(), inst, UC, &rec)
	if err != nil {
		t.Fatal(err)
	}
	sel := rec.selections()
	want := []string{"select p1 7.83", "select p6 4.61", "select p2 0.81"}
	if len(sel) != 3 {
		t.Fatalf("selections = %v, want %v", sel, want)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("selection %d = %q, want %q", i, sel[i], want[i])
		}
	}
	// p3 (2.1 MB) never fits after p1 (1.2 MB), so it must never be
	// recomputed past the initial phase — the budget check precedes the
	// lazy recomputation.
	for _, ev := range rec.events[8:] {
		if strings.HasPrefix(ev, "recompute p3") {
			t.Errorf("p3 recomputed despite never fitting: %v", rec.events)
		}
	}
	if sol.Cost > 3.0+1e-9 {
		t.Errorf("cost %g over budget", sol.Cost)
	}
}

func TestObserverNilSafe(t *testing.T) {
	inst := par.Figure1Instance()
	if _, _, err := LazyGreedy(context.Background(), inst, CB, nil); err != nil {
		t.Fatal(err)
	}
}

// TestObserverReplaysCanceledPass: an Observer hears the log of a pass
// canceled mid-run, which is a prefix of the uncanceled pass's events.
func TestObserverReplaysCanceledPass(t *testing.T) {
	inst := par.Figure1Instance()
	var full recordingObserver
	if _, _, err := LazyGreedy(context.Background(), inst, UC, &full); err != nil {
		t.Fatal(err)
	}
	ctx := &pollCancelCtx{Context: context.Background()}
	ctx.live.Store(10)
	var cut recordingObserver
	if _, _, err := LazyGreedy(ctx, inst, UC, &cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pass returned %v, want context.Canceled", err)
	}
	if len(cut.events) == 0 || len(cut.events) >= len(full.events) {
		t.Fatalf("canceled pass reported %d events, want some of the full pass's %d", len(cut.events), len(full.events))
	}
	if !slices.Equal(cut.events, full.events[:len(cut.events)]) {
		t.Fatalf("canceled pass reported %v, want a prefix of %v", cut.events, full.events)
	}
}
