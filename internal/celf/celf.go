// Package celf implements the paper's main solver (Algorithms 1 and 2): the
// CELF lazy-greedy scheme of Leskovec et al. for maximizing a monotone
// submodular function under a knapsack constraint, adapted to PAR.
//
// Algorithm 1 runs two greedy sub-procedures and keeps the better solution:
//
//   - UC ("unit cost") ignores photo costs when ranking candidates and picks
//     the photo with the largest marginal gain δ_p each round;
//   - CB ("cost benefit") ranks by the density δ_p / C(p).
//
// Taking the best of the two yields a (1−1/e)/2 worst-case approximation.
// Both sub-procedures use lazy evaluation: stale gains are kept in a
// max-priority queue and only recomputed when they reach the top, which is
// sound because submodularity guarantees gains never increase as the
// solution grows.
//
// The package also provides the a-posteriori online bound of Leskovec et
// al., which upper-bounds OPT from any solution and in practice certifies
// performance ratios far above the worst-case guarantee (Section 4.2 of the
// paper; the onlinebound experiment regenerates the observation).
package celf

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"phocus/internal/par"
)

// Variant selects the candidate-ranking rule of Algorithm 2.
type Variant int

const (
	// UC ranks candidates by marginal gain, ignoring costs.
	UC Variant = iota
	// CB ranks candidates by marginal gain per byte.
	CB
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case UC:
		return "UC"
	case CB:
		return "CB"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Stats reports the work done by a solver run.
type Stats struct {
	// GainEvals is the number of marginal-gain evaluations, the cost unit
	// the paper uses to compare algorithms.
	GainEvals int64
	// PQPops counts priority-queue pops, i.e. lazy-evaluation probes.
	PQPops int64
	// Selected is the number of photos added beyond S0.
	Selected int
	// Winner records which sub-procedure produced the returned solution
	// when solving with both (Algorithm 1).
	Winner Variant
	// TracePrefix is the number of selections replayed from Solver.Trace
	// instead of being searched for: 0 on a full pass. Like Selected, a
	// Solve reports the winning pass's.
	TracePrefix int
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

// Solver runs Algorithm 1 (best of UC and CB). It implements par.Solver.
//
// The UC and CB passes are the solver's one level of parallelism: at
// GOMAXPROCS 1 they run one after the other on the calling goroutine, and
// from 2 up concurrently, one goroutine each. Each pass keeps the classic
// schedule, recomputing one stale priority-queue entry at a time, so the
// solution and the work counters (GainEvals, PQPops) are identical for
// every GOMAXPROCS; only wall-clock time varies.
type Solver struct {
	// Scratch, when non-nil, supplies reusable solve state: one evaluator
	// and priority-queue storage per pass, used by both the
	// sequential path (which runs both passes on the UC slot) and the
	// concurrent one. A warm solve with a Scratch attached allocates nothing
	// sequentially and only its goroutine hand-off concurrently. The
	// returned Solution.Photos then alias scratch storage — valid until the
	// next Solve with the same Scratch — and the solver must not be shared
	// across goroutines.
	Scratch *Scratch
	// Trace, when non-nil, is a record of solving the instance being solved
	// at some budget (see NewTrace); only the budget may differ. Both passes
	// then seed their queues from its S0 gains with one heapify instead of
	// evaluating every candidate before their first selection. At a budget
	// the trace covers, each pass instead replays the recorded pass up to
	// its first selection that does not fit and continues from there (see
	// lazyGreedy). At a budget above it, both passes run in full and Solve
	// replaces Trace with their record, copied out of the scratch. The
	// solution and Stats.Selected are identical with and without a trace;
	// GainEvals and PQPops drop.
	Trace *Trace
	// LastStats is populated by each Solve call.
	LastStats Stats
}

// Scratch holds the reusable state of a Solve. The zero value is ready to
// use; buffers grow to the instance's size on first use and are reused
// afterwards. A Scratch belongs to one Solve at a time.
type Scratch struct {
	uc, cb       passScratch
	solUC        []par.PhotoID
	logUC, logCB []traceEvent // the passes' logs while recording a Trace
}

// passScratch is the state of one lazy-greedy pass.
type passScratch struct {
	eval  *par.Evaluator
	items []candidate
	last  []candidate // a seeded pass's latest entry per photo
	seen  []bool
}

// evaluator returns the pass's evaluator reset for inst, building it on
// first use.
func (ps *passScratch) evaluator(inst *par.Instance) *par.Evaluator {
	if ps.eval == nil {
		ps.eval = par.NewEvaluator(inst)
		return ps.eval
	}
	ps.eval.ResetFor(inst)
	return ps.eval
}

// Name implements par.Solver.
func (s *Solver) Name() string { return "PHOcus" }

// Solve runs both lazy-greedy variants and returns the better solution.
// Both sub-procedures check ctx at every priority-queue round, so a canceled
// context stops the solve within one gain evaluation.
func (s *Solver) Solve(ctx context.Context, inst *par.Instance) (par.Solution, error) {
	start := time.Now()
	sc := s.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	tr := s.Trace
	if tr != nil && len(tr.s0) != inst.NumPhotos() {
		return par.Solution{}, fmt.Errorf("celf: trace of %d photos for %d photos", len(tr.s0), inst.NumPhotos())
	}
	// Record both passes when they run in full from a trace.
	var logUC, logCB *[]traceEvent
	if tr != nil && !tr.Covers(inst.Budget) {
		sc.logUC, sc.logCB = sc.logUC[:0], sc.logCB[:0]
		logUC, logCB = &sc.logUC, &sc.logCB
	}
	var (
		solUC, solCB     par.Solution
		statsUC, statsCB Stats
		err              error
	)
	if runtime.GOMAXPROCS(0) == 1 {
		// Both passes reuse the UC slot's evaluator and queue storage. UC's
		// solution aliases the evaluator, so it is copied into scratch-owned
		// storage before CB resets it.
		solUC, statsUC, err = lazyGreedy(ctx, inst, UC, tr, &sc.uc, logUC)
		if err != nil {
			return par.Solution{}, err
		}
		sc.solUC = append(sc.solUC[:0], solUC.Photos...)
		solUC.Photos = sc.solUC
		solCB, statsCB, err = lazyGreedy(ctx, inst, CB, tr, &sc.uc, logCB)
	} else {
		// The concurrent branch lives in its own method: its goroutine
		// closure must not capture these locals, or escape analysis would
		// heap-allocate them on the sequential path too and break its
		// zero-allocation guarantee.
		solUC, solCB, statsUC, statsCB, err = s.solveConcurrent(ctx, inst, sc, logUC, logCB)
	}
	if err != nil {
		return par.Solution{}, err
	}
	if logUC != nil {
		s.Trace = &Trace{
			s0:     tr.s0,
			budget: inst.Budget,
			logs:   [2][]traceEvent{UC: slices.Clone(*logUC), CB: slices.Clone(*logCB)},
		}
	}
	s.LastStats = Stats{
		GainEvals: statsUC.GainEvals + statsCB.GainEvals,
		PQPops:    statsUC.PQPops + statsCB.PQPops,
		Elapsed:   time.Since(start),
	}
	best := solUC
	if solCB.Score >= solUC.Score {
		s.LastStats.Winner = CB
		s.LastStats.Selected = statsCB.Selected
		s.LastStats.TracePrefix = statsCB.TracePrefix
		best = solCB
	} else {
		s.LastStats.Winner = UC
		s.LastStats.Selected = statsUC.Selected
		s.LastStats.TracePrefix = statsUC.TracePrefix
	}
	if s.Scratch == nil {
		// The solution aliases the throwaway scratch; detach it.
		best.Photos = append([]par.PhotoID(nil), best.Photos...)
	}
	return best, nil
}

// solveConcurrent runs the two sub-procedures of Algorithm 1 at once, UC on
// the calling goroutine and CB on a second one, each on its own scratch slot
// over the shared read-only instance.
func (s *Solver) solveConcurrent(ctx context.Context, inst *par.Instance, sc *Scratch, logUC, logCB *[]traceEvent) (solUC, solCB par.Solution, statsUC, statsCB Stats, err error) {
	var errCB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		solCB, statsCB, errCB = lazyGreedy(ctx, inst, CB, s.Trace, &sc.cb, logCB)
	}()
	solUC, statsUC, err = lazyGreedy(ctx, inst, UC, s.Trace, &sc.uc, logUC)
	<-done
	if err == nil {
		err = errCB
	}
	if err != nil {
		return par.Solution{}, par.Solution{}, Stats{}, Stats{}, err
	}
	return solUC, solCB, statsUC, statsCB, nil
}

// S0Gains returns every photo's marginal gain against inst's retained set
// S0, indexed by photo ID (0 for the members of S0): the gains both
// lazy-greedy passes compute before their first selection. They depend on
// neither the budget nor the variant, which is what lets a Trace seed every
// budget's passes. The evaluations fan out over GOMAXPROCS goroutines;
// every value is bit-identical to a sequential Evaluator.Gain.
func S0Gains(inst *par.Instance) []float64 {
	e := par.NewEvaluator(inst)
	e.Seed()
	ps := make([]par.PhotoID, inst.NumPhotos())
	for p := range ps {
		ps[p] = par.PhotoID(p)
	}
	gains := make([]float64, len(ps))
	e.GainsInto(gains, ps)
	return gains
}

// Trace records how Algorithm 1 solved one finalized layout, so that later
// solves of the layout at other budgets reuse the work (Solver.Trace). It
// holds every photo's S0 gain and, once a full Solve has recorded it, each
// pass's log at that Solve's budget: every selection and every refresh in
// order, the refresh's epoch being the number of selections before it.
//
// A pass at budget B ≤ the recorded budget B' is the B' pass with the
// B-infeasible candidates skipped, up to the first B' selection that does
// not fit under B: the heap pops in a strict (key, photo ID) order, a
// candidate that does not fit is dropped for good, and every photo that
// fits under B at some point also fits under B'. So replaying the log's
// prefix and rebuilding the queue from each candidate's latest entry puts
// the B pass exactly where its own run would be.
//
// A Trace is immutable, so concurrent solves may share one.
type Trace struct {
	s0     []float64
	budget float64         // the logs' budget; -Inf before any are recorded
	logs   [2][]traceEvent // indexed by Variant
}

// traceEvent is one entry of a pass's log: a refresh of photo's gain, or
// its selection with the gain it added.
type traceEvent struct {
	photo    par.PhotoID
	selected bool
	gain     float64
}

// NewTrace returns a Trace holding inst's S0 gains (see S0Gains) and no
// logs: a Solve from it runs seeded passes in full and records them.
func NewTrace(inst *par.Instance) *Trace {
	return &Trace{s0: S0Gains(inst), budget: math.Inf(-1)}
}

// Covers reports whether t holds logs recorded at a budget of at least
// budget, which a Solve at budget continues instead of rerunning.
func (t *Trace) Covers(budget float64) bool {
	return budget <= t.budget
}

// Observer receives the lazy-greedy events of one LazyGreedy run, in order:
// the pass's log, replayed after the pass. It exists for demonstrations
// (the Figure 3 walkthrough) and debugging.
type Observer interface {
	// Recomputed fires when a stale priority-queue entry gets its marginal
	// gain recomputed against the current solution (curr_p ← true).
	Recomputed(p par.PhotoID, gain float64)
	// Selected fires when a photo is added to the solution.
	Selected(p par.PhotoID, gain float64)
}

// LazyGreedy is Algorithm 2: one lazy-greedy pass with the given ranking
// rule. With obs non-nil the pass records its log and then replays it into
// obs, on error too, so a canceled pass still reports what it did. It
// checks ctx at every priority-queue round. The instance must be finalized.
func LazyGreedy(ctx context.Context, inst *par.Instance, variant Variant, obs Observer) (par.Solution, Stats, error) {
	var ps passScratch
	var events []traceEvent
	var log *[]traceEvent
	if obs != nil {
		log = &events
	}
	sol, stats, err := lazyGreedy(ctx, inst, variant, nil, &ps, log)
	for _, ev := range events {
		if ev.selected {
			obs.Selected(ev.photo, ev.gain)
		} else {
			obs.Recomputed(ev.photo, ev.gain)
		}
	}
	if err != nil {
		return sol, stats, err
	}
	// The scratch solution aliases the throwaway evaluator; detach it.
	sol.Photos = append([]par.PhotoID(nil), sol.Photos...)
	return sol, stats, nil
}

// lazyGreedy is the Algorithm 2 engine behind every public entry point: one
// pass recomputing one stale entry per priority-queue round. The queue
// starts in one of two states:
//
//   - tr nil: every candidate keyed ∞, as Algorithm 2 line 4 has it.
//   - tr non-nil: the state the pass reaches just before the first selection
//     of tr's log that does not fit. The log's selections up to there are
//     replayed into the evaluator, and every candidate that still fits is
//     keyed by its last refresh before there (its S0 gain at epoch 0 if
//     none), built with one heapify; the loop then resumes at epoch = the
//     replayed prefix's length. A pass at a budget tr does not cover starts
//     from an empty log, which is the state the unseeded pass reaches just
//     before its first selection.
//
// With log non-nil the pass appends its events there: a seeded pass's log
// is the unseeded pass's events without the initial recomputation of every
// candidate that fits. That is how a Solve records a Trace, and how
// LazyGreedy feeds its Observer.
//
// All mutable state lives in ps, so a caller that keeps it across runs
// (Solver.Scratch, the engine's per-solve pools) allocates nothing at
// steady state; the returned Solution.Photos alias ps's evaluator.
func lazyGreedy(ctx context.Context, inst *par.Instance, variant Variant, tr *Trace, ps *passScratch, log *[]traceEvent) (par.Solution, Stats, error) {
	start := time.Now()
	e := ps.evaluator(inst)
	e.Seed() // S ← S0

	var stats Stats
	// Priority queue of candidate photos keyed by (possibly stale) gain.
	// The queue value lives on the stack; its item storage round-trips
	// through the scratch so the backing array is reused across runs.
	pq := gainQueue{variant: variant, cost: inst.Cost, items: ps.items[:0]}
	if tr == nil {
		for p := 0; p < inst.NumPhotos(); p++ {
			id := par.PhotoID(p)
			if e.Contains(id) {
				continue
			}
			// δ_p ← ∞: represented by pushing with the maximal possible gain
			// so every candidate is recomputed at least once before
			// selection.
			pq.push(pq.entry(id, inf, staleEpoch))
		}
	} else {
		// Replay the recorded pass until its first selection that does not
		// fit, tracking every photo's latest entry; with nothing to replay
		// every entry is the photo's S0 gain at epoch 0, which is where the
		// unseeded pass stands just before its first selection. Candidates
		// that do not fit now were dropped by the pass by now, or will be
		// when popped, and are infeasible forever. The heap order is a
		// strict total order, so the pops from here on are the uncontinued
		// pass's, whatever the layout the heapify leaves.
		var events []traceEvent
		if tr.Covers(inst.Budget) {
			events = tr.logs[variant]
		}
		n := inst.NumPhotos()
		if cap(ps.last) < n {
			ps.last = make([]candidate, n)
		}
		last := ps.last[:n]
		for p := range last {
			last[p] = pq.entry(par.PhotoID(p), tr.s0[p], 0)
		}
		for _, ev := range events {
			if !ev.selected {
				last[ev.photo] = pq.entry(ev.photo, ev.gain, pq.epoch)
				continue
			}
			if !e.Fits(ev.photo) {
				break
			}
			e.Add(ev.photo)
			pq.invalidate()
		}
		for p := range last {
			if id := par.PhotoID(p); !e.Contains(id) && e.Fits(id) {
				pq.items = append(pq.items, last[p])
			}
		}
		pq.heapify()
		stats.Selected = int(pq.epoch)
		stats.TracePrefix = stats.Selected
	}

	// (The queue storage is saved back into ps at every return — a deferred
	// closure would force the queue onto the heap and defeat the
	// allocation-free path.)
	for pq.Len() > 0 {
		if err := ctx.Err(); err != nil {
			ps.items = pq.items[:0]
			return par.Solution{}, stats, err
		}
		top := pq.pop()
		stats.PQPops++
		if e.Contains(top.photo) || !e.Fits(top.photo) {
			// Infeasible now and forever (costs are fixed and the budget
			// only shrinks): drop the candidate.
			continue
		}
		if top.epoch == pq.epoch {
			// curr_p is true: the gain was computed against the current
			// solution and is still the queue maximum, so by submodularity
			// it is the best candidate. Select it.
			gain := e.Add(top.photo)
			stats.Selected++
			pq.invalidate()
			if log != nil {
				*log = append(*log, traceEvent{photo: top.photo, selected: true, gain: gain})
			}
			continue
		}
		// Recompute δ_p against the current solution and reinsert.
		gain := e.Gain(top.photo)
		pq.push(pq.entry(top.photo, gain, pq.epoch))
		if log != nil {
			*log = append(*log, traceEvent{photo: top.photo, gain: gain})
		}
	}

	ps.items = pq.items[:0]
	stats.GainEvals = e.GainEvals()
	stats.Elapsed = time.Since(start)
	sol := e.SolutionView()
	if len(ps.seen) < inst.NumPhotos() {
		ps.seen = make([]bool, inst.NumPhotos())
	}
	if !inst.FeasibleBuf(sol.Photos, ps.seen) {
		return par.Solution{}, stats, fmt.Errorf("celf: produced infeasible solution (cost %.3f, budget %.3f)", sol.Cost, inst.Budget)
	}
	return sol, stats, nil
}

// inf is the initial "∞" gain of Algorithm 2 line 4. Any real gain is
// finite, so candidates initialized to inf always get recomputed first.
const inf = 1e300

// staleEpoch tags an entry whose gain was never computed (curr_p false from
// the start): no queue epoch ever equals it.
const staleEpoch = -1

// candidate is a priority-queue entry.
type candidate struct {
	// key is the ranking value under the queue's variant, fixed when the
	// entry is pushed.
	key   float64
	photo par.PhotoID
	// epoch tags the solution version the gain was computed against. The
	// entry is current (curr_p from Algorithm 2) while it equals the
	// queue's epoch, so one increment after a selection marks every queued
	// entry stale.
	epoch int32
}

// gainQueue is a max-heap over candidates, ranking by gain (UC) or gain per
// cost (CB). Instead of walking the heap to reset curr_p after every
// selection, it stamps entries with an epoch and treats entries from older
// epochs as stale. The sift operations are hand-rolled rather than going
// through container/heap: heap.Push boxes every candidate into an interface
// value, one heap allocation per push, which is the difference between an
// allocation-free solve and thousands of allocations per pass. The
// algorithm is identical sift-up/sift-down, and less is a strict total
// order (key descending, photo ID ascending), so the pop sequence — and
// therefore every selection — does not depend on the heap's layout.
type gainQueue struct {
	variant Variant
	cost    []float64
	epoch   int32
	items   []candidate
}

// entry returns the candidate for photo p with a gain computed against
// solution version epoch (staleEpoch for never), its key computed under the
// queue's variant.
func (g *gainQueue) entry(p par.PhotoID, gain float64, epoch int32) candidate {
	if g.variant == CB {
		gain /= g.cost[p]
	}
	return candidate{key: gain, photo: p, epoch: epoch}
}

func (g *gainQueue) Len() int { return len(g.items) }

// less orders by key descending, breaking exact ties by photo ID so the heap
// maximum is a deterministic function of the queued entries: the pop
// sequence, and so every selection, does not depend on the heap's layout.
func (g *gainQueue) less(i, j int) bool {
	a, b := &g.items[i], &g.items[j]
	if a.key != b.key {
		return a.key > b.key
	}
	return a.photo < b.photo
}

func (g *gainQueue) push(c candidate) {
	g.items = append(g.items, c)
	g.up(len(g.items) - 1)
}

func (g *gainQueue) pop() candidate {
	n := len(g.items) - 1
	g.items[0], g.items[n] = g.items[n], g.items[0]
	c := g.items[n]
	g.items = g.items[:n]
	if n > 0 {
		g.down(0)
	}
	return c
}

// heapify restores the heap order over items in O(n).
func (g *gainQueue) heapify() {
	for i := len(g.items)/2 - 1; i >= 0; i-- {
		g.down(i)
	}
}

func (g *gainQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !g.less(i, parent) {
			break
		}
		g.items[i], g.items[parent] = g.items[parent], g.items[i]
		i = parent
	}
}

func (g *gainQueue) down(i int) {
	n := len(g.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && g.less(r, l) {
			j = r
		}
		if !g.less(j, i) {
			break
		}
		g.items[i], g.items[j] = g.items[j], g.items[i]
		i = j
	}
}

// invalidate marks all queued gains stale; called after each selection.
func (g *gainQueue) invalidate() { g.epoch++ }
