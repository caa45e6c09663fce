// Package dynamic maintains a near-optimal retained set while the archive
// grows — the operational loop around the paper's one-shot optimization.
// New photos keep arriving (new products, new uploads); re-running the full
// solver on every arrival is wasteful, so the Maintainer applies a cheap
// per-arrival swap rule and escalates to a full CELF re-solve only when the
// accumulated drift suggests the incremental decisions have degraded.
//
// The maintainer is built on the staged engine's delta path: it owns a
// *phocus.Prepared and grows it one phocus.Delta at a time through
// Prepared.ApplyDelta, so the instance, its sparsified structure and the
// compiled gain kernels stay warm across arrivals. Every gain the arrival
// rule evaluates runs on the compiled kernel (through Prepared.View), and a
// drift re-solve is simply Prepared.Run — there is no second solve path to
// keep in sync. The older simulation-only model (full instance up front,
// photos "revealed" one at a time) survives as the Feeder in feeder.go,
// which replays a complete instance as a delta stream.
//
// Per-arrival rule: apply the delta, then compute the arrival's marginal
// gain w.r.t. the current retained set. If it fits the leftover budget,
// keep it. Otherwise evict the retained photos with the smallest CURRENT
// marginal value per byte — re-evaluated against the present solution, not
// the gain recorded at their own admission, which submodularity makes a
// stale upper bound — until the arrival fits, and keep the swap only if the
// objective improves. Every ResolveEvery arrivals, or when the incremental
// score falls below DriftFactor × the last full-solve score, Prepared.Run
// resets the state.
package dynamic

import (
	"context"
	"fmt"
	"sort"
	"time"

	"phocus/internal/par"
	"phocus/internal/phocus"
)

// Options tunes the maintainer.
type Options struct {
	// ResolveEvery forces a full re-solve after this many arrivals
	// (0 = never force; default 0).
	ResolveEvery int
	// DriftFactor triggers a re-solve when the maintained score drops
	// below DriftFactor times the score a full solve achieved at the last
	// checkpoint (default 0 = disabled).
	DriftFactor float64
}

// Verdict describes what happened to one arrival.
type Verdict int

const (
	// Rejected: the arrival is archived immediately.
	Rejected Verdict = iota
	// Admitted: the arrival joined the retained set within budget.
	Admitted
	// Swapped: the arrival replaced one or more retained photos.
	Swapped
	// Resolved: the arrival triggered a full re-solve.
	Resolved
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Rejected:
		return "rejected"
	case Admitted:
		return "admitted"
	case Swapped:
		return "swapped"
	case Resolved:
		return "resolved"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Stats counts maintainer activity.
type Stats struct {
	Arrivals, Admitted, Rejected, Swapped, Resolves int
	ResolveTime                                     time.Duration
}

// Maintainer holds the evolving retained set over a delta-maintained
// Prepared. It is not safe for concurrent use.
type Maintainer struct {
	prep   *phocus.Prepared
	budget float64
	opts   Options

	// view/eval are rebuilt after every delta: ApplyDelta renormalizes
	// relevance and extends the kernels in place, so anything derived from
	// the previous instance state is stale.
	view *par.Instance
	eval *par.Evaluator

	sinceResolve     int
	lastResolveScore float64
	stats            Stats
}

// New returns a maintainer over the Prepared with an empty selection (S0
// aside). The budget is the retained-set bound B every decision honours;
// 0 means the instance's full cost (nothing ever needs archiving).
func New(prep *phocus.Prepared, budget float64, opts Options) (*Maintainer, error) {
	m := &Maintainer{prep: prep, budget: budget, opts: opts}
	if err := m.refresh(nil); err != nil {
		return nil, err
	}
	return m, nil
}

// refresh rebuilds the budgeted view and the evaluator, re-adding kept (S0
// is seeded first; duplicates are skipped). The selection is a set, so the
// re-add order does not affect the resulting score.
func (m *Maintainer) refresh(kept []par.PhotoID) error {
	view, err := m.prep.View(m.budget)
	if err != nil {
		return err
	}
	eval := par.NewEvaluator(view)
	eval.Seed()
	for _, p := range kept {
		if !eval.Contains(p) {
			eval.Add(p)
		}
	}
	m.view, m.eval = view, eval
	return nil
}

// Solution returns the current retained set (engine photo IDs).
func (m *Maintainer) Solution() par.Solution { return m.eval.Solution() }

// Score returns the current objective value.
func (m *Maintainer) Score() float64 { return m.eval.Score() }

// Stats returns a copy of the activity counters.
func (m *Maintainer) Stats() Stats { return m.stats }

// Prepared returns the underlying delta-maintained engine instance.
func (m *Maintainer) Prepared() *phocus.Prepared { return m.prep }

// Arrive applies a one-photo growth delta to the Prepared and decides the
// newcomer's fate. The delta must add exactly one photo (its memberships and
// any newly opened subsets ride along) and remove none — removal churn goes
// through Prepared.ApplyDelta directly, followed by Reset.
func (m *Maintainer) Arrive(ctx context.Context, d *phocus.Delta) (Verdict, error) {
	if d == nil || len(d.Add) != 1 || len(d.Remove) != 0 {
		return Rejected, fmt.Errorf("dynamic: Arrive wants exactly one added photo and no removals")
	}
	id := par.PhotoID(m.prep.NumPhotos()) // the engine ID ApplyDelta assigns
	kept := m.eval.Solution().Photos
	if _, err := m.prep.ApplyDelta(ctx, d); err != nil {
		return Rejected, err
	}
	if err := m.refresh(kept); err != nil {
		return Rejected, err
	}
	return m.Consider(ctx, id)
}

// Consider runs the arrival decision for a photo already present in the
// instance but not in the selection — the path for seed photos that were
// never streamed through Arrive, and the second half of Arrive itself.
func (m *Maintainer) Consider(ctx context.Context, id par.PhotoID) (Verdict, error) {
	if id < 0 || int(id) >= m.view.NumPhotos() {
		return Rejected, fmt.Errorf("dynamic: photo %d out of range", id)
	}
	if m.eval.Contains(id) {
		return Rejected, fmt.Errorf("dynamic: photo %d already retained", id)
	}
	m.stats.Arrivals++
	m.sinceResolve++

	if m.shouldResolve() {
		if err := m.resolve(ctx); err != nil {
			return Rejected, err
		}
		return Resolved, nil
	}

	gain := m.eval.Gain(id)
	if m.eval.Fits(id) {
		if gain <= 0 {
			m.stats.Rejected++
			return Rejected, nil
		}
		m.eval.Add(id)
		m.stats.Admitted++
		return Admitted, nil
	}

	// Swap attempt: free room by evicting the photos whose CURRENT marginal
	// value per byte is smallest. The marginal is re-evaluated here — the
	// kernel-backed evaluator makes score(S \ {r}) cheap enough — because a
	// gain recorded at admission time is only an upper bound on what the
	// photo contributes today (later admissions may cover it completely).
	current := m.eval.Solution()
	type cand struct {
		id      par.PhotoID
		density float64
	}
	var cands []cand
	for _, r := range current.Photos {
		if m.view.IsRetained(r) {
			continue // S0 is not evictable
		}
		without := par.NewEvaluator(m.view)
		without.Seed()
		for _, o := range current.Photos {
			if o != r && !without.Contains(o) {
				without.Add(o)
			}
		}
		loss := current.Score - without.Score()
		cands = append(cands, cand{id: r, density: loss / m.view.Cost[r]})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].density < cands[j].density })

	needed := m.view.Cost[id] - (m.view.Budget - current.Cost)
	var evict []par.PhotoID
	var freed float64
	for _, c := range cands {
		if freed >= needed {
			break
		}
		evict = append(evict, c.id)
		freed += m.view.Cost[c.id]
	}
	if freed < needed {
		m.stats.Rejected++
		return Rejected, nil
	}
	evictSet := make(map[par.PhotoID]bool, len(evict))
	for _, r := range evict {
		evictSet[r] = true
	}
	trial := par.NewEvaluator(m.view)
	trial.Seed()
	for _, r := range current.Photos {
		if !evictSet[r] && !trial.Contains(r) {
			trial.Add(r)
		}
	}
	if !trial.Fits(id) {
		m.stats.Rejected++
		return Rejected, nil
	}
	trial.Add(id)
	if trial.Score() <= current.Score {
		m.stats.Rejected++
		return Rejected, nil
	}
	m.eval = trial
	m.stats.Swapped++
	return Swapped, nil
}

// Reset rebuilds the maintainer's state after out-of-band churn on the
// Prepared (removals, batch deltas applied directly). Photos in the current
// selection that no longer exist or were husked are dropped.
func (m *Maintainer) Reset() error {
	kept := m.eval.Solution().Photos
	if err := m.refresh(nil); err != nil {
		return err
	}
	for _, p := range kept {
		if int(p) < m.view.NumPhotos() && !m.eval.Contains(p) && m.eval.Fits(p) && m.eval.Gain(p) > 0 {
			m.eval.Add(p)
		}
	}
	return nil
}

// shouldResolve applies the escalation policy.
func (m *Maintainer) shouldResolve() bool {
	if m.opts.ResolveEvery > 0 && m.sinceResolve >= m.opts.ResolveEvery {
		return true
	}
	if m.opts.DriftFactor > 0 && m.lastResolveScore > 0 {
		return m.eval.Score() < m.opts.DriftFactor*m.lastResolveScore
	}
	return false
}

// Resolve forces a full re-solve: one Prepared.Run over the current
// delta-maintained instance, on the compiled kernels.
func (m *Maintainer) Resolve(ctx context.Context) error { return m.resolve(ctx) }

func (m *Maintainer) resolve(ctx context.Context) error {
	start := time.Now()
	res, err := m.prep.Run(ctx, phocus.RunOptions{
		Budget:    m.budget,
		Algorithm: phocus.AlgoCELF,
		SkipBound: true,
	})
	if err != nil {
		return err
	}
	if err := m.refresh(res.Solution.Photos); err != nil {
		return err
	}
	m.sinceResolve = 0
	m.lastResolveScore = m.eval.Score()
	m.stats.Resolves++
	m.stats.ResolveTime += time.Since(start)
	return nil
}
