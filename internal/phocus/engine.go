// The staged engine splits Figure 4's pipeline into its two halves so they
// can be amortized independently: Prepare covers the Data Representation
// stage (finalize + τ-sparsify, exact or LSH) and produces an immutable
// *Prepared; Run covers the Solver stage (solve + true-objective rescore +
// online bound) and may be called many times — with different budgets and
// algorithms — against one Prepared. Prepare + Run is the engine's only
// entry. The server, its jobs, the CLI's default solve, the benchmarks and
// the experiments' PHOcus runs go through it (PipelineSolver wraps it as a
// par.Solver). Some callers run a solver on a par.Instance directly
// instead: cmd/phocus -compare, examples/{compression,ecommerce,
// paperexample} and internal/study call celf.Solver through par.Solver, and
// the Greedy-NR baseline and the lazy-versus-eager experiment call
// celf.LazyGreedy.
package phocus

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"phocus/internal/celf"
	"phocus/internal/dataset"
	"phocus/internal/exact"
	"phocus/internal/obs"
	"phocus/internal/par"
	"phocus/internal/sparsify"
	"phocus/internal/streaming"
	"phocus/internal/sviridenko"
)

// ErrNoCtxVectors is returned by Prepare when LSH sparsification is
// requested but the dataset carries no per-subset context vectors (the JSON
// wire format only carries them when written with WriteJSONVectors).
var ErrNoCtxVectors = errors.New("phocus: LSH sparsification requires per-subset context vectors, but the dataset carries none")

// PrepareOptions configures the Data Representation stage.
type PrepareOptions struct {
	// Tau enables τ-sparsification when positive; it must lie in [0, 1].
	Tau float64
	// UseLSH selects SimHash candidate generation for the sparsification;
	// the dataset must carry CtxVectors or Prepare fails with
	// ErrNoCtxVectors.
	UseLSH bool
	// Seed drives LSH randomness.
	Seed int64
	// InstanceDigest, when non-empty, is a caller-supplied content digest of
	// the instance (e.g. a sha256 over the raw request body) used verbatim
	// for Fingerprint instead of re-serializing the instance — callers that
	// already stream the bytes get fingerprinting for free.
	InstanceDigest string
	// Metrics, when non-nil, receives stage telemetry
	// (phocus_kernel_build_seconds). It does not contribute to Fingerprint.
	Metrics *obs.Registry
}

// RunOptions configures one Solver-stage run against a Prepared instance.
type RunOptions struct {
	// Budget is B in bytes. Zero means "keep everything" (budget = total
	// cost).
	Budget float64
	// Algorithm defaults to AlgoCELF.
	Algorithm Algorithm
	// SkipBound disables the a-posteriori online-bound computation (it
	// costs one sweep of the true kernel's cover index, which reads only
	// the entries able to raise a slot above its best value, plus a sort of
	// the photos with positive gain).
	SkipBound bool
	// ExactMaxNodes caps the branch-and-bound search (0 = unlimited).
	ExactMaxNodes int64
	// OnCELFStats / OnSviridenkoStats / OnExactStats receive the solver's
	// LastStats at the end of a successful run of the matching algorithm.
	OnCELFStats       func(celf.Stats)
	OnSviridenkoStats func(sviridenko.Stats)
	OnExactStats      func(exact.Stats)
}

// Prepared is a reusable product of the Data Representation stage: the
// finalized instance with its compiled gain kernel, plus (when τ > 0) the
// τ-sparsified kernel, which the solve template reads through the same
// finalized layout. The kernels are the one similarity store: every subset
// Sim of both templates is a view of its template's kernel rows
// (par.SetKernelSims), so no similarity is held twice. A Prepared is safe
// for concurrent Run calls — each Run builds its own budgeted view and never
// mutates shared state beyond installing an immutable CELF trace — which is
// what lets phocus-server cache Prepared values across requests. The trace
// lets a CELF Run at a budget no larger than one already solved continue
// that solve's greedy passes instead of redoing them, with the same
// selections bit for bit. ApplyDelta is the one mutating operation: it takes
// the write side of mu, so deltas serialize against in-flight runs rather
// than corrupting them.
type Prepared struct {
	// mu guards every field below against ApplyDelta. Readers (Run,
	// SizeBytes, Fingerprint, EncodeSnapshot, ...) hold it shared for their
	// full duration because ApplyDelta mutates the compiled kernels in place.
	mu sync.RWMutex

	base *par.Instance // finalized with budget = total cost
	opts PrepareOptions
	// owner is the tenant whose request built the Prepared (see Pipeline).
	// Like opts.Metrics it is not part of the fingerprint. It is set before
	// the Prepared is shared and never changes: deltas and snapshots keep it.
	owner string

	// removed marks husked photo IDs (see delta.go); nil until the first
	// ApplyDelta.
	removed []bool

	// solveTmpl is the budget-free template RunInto stamps budgeted solve
	// views from: base itself when Tau == 0, otherwise base read through the
	// τ-sparsified kernel (par.Instance.WithKernel), which shares base's
	// costs, S0, members, relevances and occurrence index. τ-sparsification
	// only rounds similarities down to zero, so it changes the kernel and
	// nothing else.
	//
	// The compiled gain kernels live on the two templates (par.Instance.Kernel):
	// base's covers the true objective for Run's rescore and online bound,
	// solveTmpl's the similarities the solver runs on. Prepare,
	// DecodeSnapshot, ApplyDelta and compaction install them through
	// setKernels, so a Run's ViewInto views find them already in place.
	solveTmpl *par.Instance

	// scratch pools per-Run working state (budgeted views, the rescore
	// evaluator, the CELF solver's heap) for the allocation-free Run path.
	// Entries self-heal on shape changes (Evaluator.ResetFor rebuilds on
	// mismatch), so deltas and compactions need no invalidation.
	scratch sync.Pool

	// trace is the one per-Prepared solve memo, a celf.Trace of the solve
	// template: every photo's gain against S0, which seeds both CELF passes
	// of every Run, plus both passes' logs at the largest budget a CELF Run
	// has solved in full. A Run at or below that budget continues the logs
	// instead of redoing both passes; a Run above it solves in full and
	// installs its own record. A trace is immutable: traceMu serializes its
	// installs and the first Run's S0 pass, and Runs, which hold mu shared,
	// read it under traceMu. ApplyDelta and compaction drop it (under the
	// write side of mu); snapshots do not store it, and SizeBytes does not
	// count it.
	traceMu sync.Mutex
	trace   *celf.Trace

	sizeBytes int64

	fpOnce sync.Once
	fp     string
	fpErr  error

	// PrepTime is the wall-clock cost of the stage (finalize + sparsify +
	// kernel compilation).
	PrepTime time.Duration
	// KernelBuildTime is the portion of PrepTime spent building gain
	// kernels: compiling them, and thresholding the true kernel at τ.
	KernelBuildTime time.Duration
	// OriginalPairs / SparsifiedPairs report how much τ-sparsification
	// shrank the similarity structure (both zero when Tau == 0). On the LSH
	// path OriginalPairs counts only candidate pairs with positive true
	// similarity. ApplyDelta and compaction keep them current, under the
	// write side of mu, so they always equal a cold Prepare's of the
	// churned instance.
	OriginalPairs, SparsifiedPairs int
}

// Prepare runs the Data Representation stage on a dataset: it finalizes a
// budget-free view of the instance, compiles its true gain kernel and, when
// opts.Tau > 0, τ-sparsifies it: exactly, by thresholding the true kernel's
// entries at τ (par.Kernel.Threshold), or, when opts.UseLSH and the dataset
// carries CtxVectors, by verifying SimHash candidate pairs and compiling the
// kernel of the pairs kept. S0 is the instance's own retained set. opts.Tau
// must lie in [0, 1].
//
// The true kernel is compiled first, and the base subsets hold views of it,
// so each similarity of the dataset is computed once, by the compile, which
// reads every pair in one orientation and mirrors it (par.CompileKernel). The
// exact τ-kernel is the one compiling the dataset's similarities rounded
// down below τ would give, slab for slab and byte for byte: the views read
// back exactly the positive similarities the subsets hold, which
// par.Similarity requires to be symmetric.
func Prepare(ctx context.Context, ds *dataset.Dataset, opts PrepareOptions) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !(opts.Tau >= 0 && opts.Tau <= 1) {
		return nil, fmt.Errorf("phocus: tau %g out of [0,1]", opts.Tau)
	}
	start := time.Now()
	inst := ds.Instance
	// The base view carries budget = total cost so every retained set
	// finalizes; Run re-finalizes against the requested budget. Its subsets
	// slice is a clone, so pointing its Sims at the kernel leaves the
	// caller's dataset its similarities.
	base := &par.Instance{
		Cost:     inst.Cost,
		Retained: inst.Retained,
		Budget:   inst.TotalCost(),
		Subsets:  slices.Clone(inst.Subsets),
	}
	if err := base.Finalize(); err != nil {
		return nil, fmt.Errorf("phocus: %w", err)
	}
	if opts.Tau > 0 && opts.UseLSH && len(ds.CtxVectors) == 0 {
		return nil, ErrNoCtxVectors
	}

	// Both kernels are built here, so the first Run pays for neither, and
	// the true one becomes its subsets' similarities.
	kt := time.Now()
	kb := base.Kernel()
	par.SetKernelSims(base.Subsets, kb)
	p := &Prepared{opts: opts}
	ks := kb
	switch {
	case opts.Tau > 0 && opts.UseLSH:
		p.KernelBuildTime = time.Since(kt)
		rng := rand.New(rand.NewSource(opts.Seed))
		sres, err := sparsify.WithLSH(rng, base, ds.CtxVectors, opts.Tau)
		if err != nil {
			return nil, err
		}
		p.OriginalPairs, p.SparsifiedPairs = sres.PairsBefore, sres.PairsAfter
		// The sparsified instance is base with other similarities: only its
		// compiled kernel is kept, read through base's layout.
		kt = time.Now()
		ks = sres.Instance.Kernel()
	case opts.Tau > 0:
		ks, p.OriginalPairs, p.SparsifiedPairs = kb.Threshold(opts.Tau)
	}
	p.KernelBuildTime += time.Since(kt)
	if err := p.setKernels(base, kb, ks); err != nil {
		return nil, fmt.Errorf("phocus: %w", err)
	}
	if opts.Metrics != nil {
		obs.RecordKernelBuild(opts.Metrics, p.KernelBuildTime)
	}
	p.PrepTime = time.Since(start)
	p.sizeBytes = p.sizeBytesLocked()
	return p, nil
}

// NumPhotos returns the instance size (husked photos included).
func (p *Prepared) NumPhotos() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.base.NumPhotos()
}

// TotalCost returns Σ C(p), the byte size of the whole archive.
func (p *Prepared) TotalCost() float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.base.TotalCost()
}

// SizeBytes estimates the memory retained by the Prepared — the cost
// vector, members and relevances, plus the compiled gain kernels with their
// delta overlays, which hold every similarity — and cache byte bounds use
// it. It is computed at Prepare, after each delta and after compaction;
// DecodeSnapshot counts the loaded region instead.
func (p *Prepared) SizeBytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sizeBytes
}

// sizeBytesLocked recounts SizeBytes for an in-memory Prepared. The solve
// template shares the base's Members and Relevance slices, so they are
// counted once.
func (p *Prepared) sizeBytesLocked() int64 {
	n := 8 * int64(len(p.base.Cost))
	for qi := range p.base.Subsets {
		q := &p.base.Subsets[qi]
		n += 4*int64(len(q.Members)) + 8*int64(len(q.Relevance))
	}
	return n + p.kernelBytesLocked()
}

// KernelBytes returns the memory retained by the compiled gain kernels
// (included in SizeBytes), counting the true kernel's cover index whether
// or not a Run has built it yet.
func (p *Prepared) KernelBytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.kernelBytesLocked()
}

func (p *Prepared) kernelBytesLocked() int64 {
	kb := p.base.Kernel()
	n := kb.SizeBytes() + pendingCoverBytes(kb)
	if ks := p.solveTmpl.Kernel(); ks != kb {
		n += ks.SizeBytes()
	}
	return n
}

// setKernels installs base, finalized and with its subsets' Sims already
// views of kb, as the Prepared's instance read through kb, and its solve
// template: base itself when ks is kb, otherwise base read through ks. It is
// the one way Prepare, DecodeSnapshot, ApplyDelta and compaction set the
// templates, and it changes nothing when it fails.
func (p *Prepared) setKernels(base *par.Instance, kb, ks *par.Kernel) error {
	tmpl := base
	if ks != kb {
		var err error
		if tmpl, err = withKernel(base, ks); err != nil {
			return err
		}
	}
	if err := base.AttachKernel(kb); err != nil {
		return err
	}
	p.base, p.solveTmpl = base, tmpl
	return nil
}

// withKernel builds a solve template, (*par.Instance).WithKernel; tests
// count the builds through it.
var withKernel = (*par.Instance).WithKernel

// pendingCoverBytes returns the bytes of k's cover index if it has not been
// built yet, 0 once it has (SizeBytes counts it then). A bounded Run builds
// the true kernel's index, so charging it ahead keeps a Prepared's cache
// charge from moving under it.
func pendingCoverBytes(k *par.Kernel) int64 {
	if n, built := k.CoverBytes(); !built {
		return n
	}
	return 0
}

// Fingerprint returns the content fingerprint identifying this Prepared: a
// sha256 over the instance bytes (opts.InstanceDigest when supplied,
// InstanceDigest of the base instance otherwise) combined with the
// preparation parameters (tau, lsh, seed). Two Prepare calls with equal
// fingerprints produce interchangeable Prepared values; the run budget is
// deliberately excluded so budget sweeps share one entry.
// Each ApplyDelta evolves the fingerprint (see delta.go), so a post-churn
// Prepared never answers for its pre-churn cache key.
func (p *Prepared) Fingerprint() (string, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.fingerprintLocked()
}

// fingerprintLocked is Fingerprint for callers already holding mu (either
// side — fpOnce makes the lazy computation itself race-free; the lock only
// protects the fp field against ApplyDelta's rewrite).
func (p *Prepared) fingerprintLocked() (string, error) {
	p.fpOnce.Do(func() {
		digest := p.opts.InstanceDigest
		if digest == "" {
			digest, p.fpErr = InstanceDigest(p.base)
			if p.fpErr != nil {
				return
			}
		}
		p.fp = FingerprintFor(digest, p.opts)
	})
	return p.fp, p.fpErr
}

// InstanceDigest serializes the instance (budget excluded) through sha256
// and returns the hex digest. Note the serialization enumerates similarity
// pairs, so for dense similarity structures this costs O(k²) per subset —
// callers on a hot path should stream a digest of the wire bytes they
// already have and pass it via PrepareOptions.InstanceDigest instead.
func InstanceDigest(inst *par.Instance) (string, error) {
	h := sha256.New()
	c := *inst
	c.Budget = 0 // budget is a Run parameter, not prepared content
	if err := par.WriteBinary(h, &c); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// FingerprintFor combines an instance content digest with the preparation
// parameters into the cache key Prepare/Fingerprint use. Callers that
// digest the wire bytes themselves (phocus-server) call this directly to
// probe the cache before deciding whether to Prepare at all. The run budget
// is excluded so budget sweeps share one entry.
func FingerprintFor(digest string, opts PrepareOptions) string {
	h := sha256.New()
	io.WriteString(h, "phocus/prepared/v1\x00")
	io.WriteString(h, digest)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(opts.Tau))
	h.Write(buf[:])
	if opts.UseLSH {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(opts.Seed))
	h.Write(buf[:])
	// A constant byte, so every fingerprint (and the snapshot file named
	// after it) stays stable across versions; S0 is part of the digested
	// instance.
	h.Write([]byte{0})
	return hex.EncodeToString(h.Sum(nil))
}

// View returns a finalized budgeted view of the Prepared's current base
// instance, sharing its compiled gain kernel — the raw material for callers
// that drive their own evaluators between deltas (internal/dynamic's
// maintainer). A budget of 0 means "keep everything". The view aliases the
// Prepared's live structures, so the next ApplyDelta invalidates it; build a
// fresh view after every delta.
func (p *Prepared) View(budget float64) (*par.Instance, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if budget == 0 {
		budget = p.base.TotalCost()
	}
	v := &par.Instance{}
	if err := p.base.ViewInto(v, budget); err != nil {
		return nil, fmt.Errorf("phocus: %w", err)
	}
	return v, nil
}

// runScratch is the pooled per-Run working state of the allocation-free
// solve path: budgeted instance views stamped by ViewInto, the true-objective
// rescore evaluator, the CELF solver and its scratch, and the online bound's
// buffers. Everything in it self-heals on shape changes (ResetFor rebuilds
// evaluators on mismatch, the views are restamped every run, buffers grow),
// so one pool serves a Prepared across deltas and compactions without
// invalidation.
type runScratch struct {
	trueView  par.Instance
	solveView par.Instance
	rescore   *par.Evaluator
	solver    celf.Solver
	celf      celf.Scratch
	bound     celf.BoundScratch
}

// traceFor returns the solve template's trace, computing its S0 gains on
// first use. solveInst is a view of that template. A Run whose ctx is
// already done gets ctx's error instead of paying for the pass, and leaves
// the memo empty for the next Run. The caller holds mu shared.
func (p *Prepared) traceFor(ctx context.Context, solveInst *par.Instance) (*celf.Trace, error) {
	p.traceMu.Lock()
	defer p.traceMu.Unlock()
	if p.trace == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.trace = celf.NewTrace(solveInst)
	}
	return p.trace, nil
}

// installTrace makes t, recorded by a full CELF solve at budget, the
// Prepared's trace unless a concurrent Run already installed one covering
// budget. The caller holds mu shared.
func (p *Prepared) installTrace(t *celf.Trace, budget float64) {
	p.traceMu.Lock()
	defer p.traceMu.Unlock()
	if !p.trace.Covers(budget) {
		p.trace = t
	}
}

// Run executes the Solver stage against the prepared instance: solve under
// the requested budget (on the sparsified structure when the Prepared has
// one), rescore under the true objective, and compute the online bound.
// Cancellation propagates into the solver through par.Solver's ctx, so a
// canceled ctx stops the solve mid-run and Run returns the context's error.
// Run holds the Prepared's read lock for its full duration: concurrent Runs
// proceed freely, while an ApplyDelta waits for them to drain. It is a thin
// wrapper over RunInto with a fresh Result.
func (p *Prepared) Run(ctx context.Context, opts RunOptions) (*Result, error) {
	res := &Result{}
	if err := p.RunInto(ctx, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run writing into a caller-owned Result: scalar fields are
// reset, and the Solution.Photos and Archived slices are truncated and
// refilled in place. A CELF Run at a budget no larger than the largest one
// a CELF Run has solved since the last delta continues that Run's recorded
// passes (celf.Trace); one above it solves in full and records its passes
// as the new trace. So
// a warm steady state — stable shapes, AlgoCELF, budgets the trace covers,
// with or without the online bound — performs zero heap allocations per
// call at GOMAXPROCS 1 (testing.AllocsPerRun reports 0; the bench suite
// pins it), and a Run that records allocates the trace's logs. At a larger
// GOMAXPROCS only the CELF passes' goroutine hand-offs allocate, a handful
// of objects per call: the online bound is one sequential sweep at every
// GOMAXPROCS.
// The previous contents of res are gone after the call, error or not.
func (p *Prepared) RunInto(ctx context.Context, opts RunOptions, res *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()

	photos := res.Solution.Photos[:0]
	archived := res.Archived[:0]
	*res = Result{
		OriginalPairs:   p.OriginalPairs,
		SparsifiedPairs: p.SparsifiedPairs,
		PrepTime:        p.PrepTime,
	}

	budget := opts.Budget
	if budget == 0 {
		budget = p.base.TotalCost()
	}

	sc, _ := p.scratch.Get().(*runScratch)
	if sc == nil {
		sc = &runScratch{}
	}
	// Budgeted views for this run only, stamped from the finalized templates
	// without re-running Finalize (ViewInto): concurrent Runs hold distinct
	// scratch, and nothing here mutates the shared Subsets. Each view shares
	// its template's kernel, so the solver, rescore and online-bound passes
	// all run the kernel compiled (or attached) before this Run.
	err := p.base.ViewInto(&sc.trueView, budget)
	if err == nil {
		err = p.solveTmpl.ViewInto(&sc.solveView, budget)
	}
	solveInst := &sc.solveView
	if err != nil {
		// par's errors carry their own prefix: a budget below C(S0) reaches
		// callers worded exactly as Finalize words it.
		p.scratch.Put(sc)
		return err
	}

	t0 := time.Now()
	var sol par.Solution
	switch opts.Algorithm {
	case "", AlgoCELF:
		var tr *celf.Trace
		if tr, err = p.traceFor(ctx, solveInst); err != nil {
			break
		}
		sc.solver = celf.Solver{Scratch: &sc.celf, Trace: tr}
		res.Algorithm = sc.solver.Name()
		sol, err = sc.solver.Solve(ctx, solveInst)
		if err != nil {
			break
		}
		if sc.solver.Trace != tr {
			p.installTrace(sc.solver.Trace, budget)
		}
		if opts.OnCELFStats != nil {
			opts.OnCELFStats(sc.solver.LastStats)
		}
	case AlgoSviridenko:
		s := &sviridenko.Solver{}
		res.Algorithm = s.Name()
		sol, err = s.Solve(ctx, solveInst)
		if err == nil && opts.OnSviridenkoStats != nil {
			opts.OnSviridenkoStats(s.LastStats)
		}
	case AlgoExact:
		s := &exact.Solver{MaxNodes: opts.ExactMaxNodes}
		res.Algorithm = s.Name()
		sol, err = s.Solve(ctx, solveInst)
		if err == nil && opts.OnExactStats != nil {
			opts.OnExactStats(s.LastStats)
		}
	case AlgoStreaming:
		s := &streaming.Solver{}
		res.Algorithm = s.Name()
		sol, err = s.Solve(ctx, solveInst)
	default:
		p.scratch.Put(sc)
		return fmt.Errorf("phocus: unknown algorithm %q", opts.Algorithm)
	}
	if err != nil {
		p.scratch.Put(sc)
		return err
	}
	t1 := time.Now()
	res.SolveTime = t1.Sub(t0)

	// Rescore under the true objective through the pooled evaluator (the
	// solver may have optimized the sparsified surrogate). The
	// Add sequence is exactly par.ScoreFast's, so the score is bit-identical
	// to the allocating path's. The evaluator then holds Ŝ for the online
	// bound too.
	if sc.rescore == nil {
		sc.rescore = par.NewEvaluator(&sc.trueView)
	} else {
		sc.rescore.ResetFor(&sc.trueView)
	}
	re := sc.rescore
	for _, ph := range sol.Photos {
		re.Add(ph)
	}
	// Caller slices too small for the answer are replaced by exactly sized
	// ones rather than grown by append, so a Result the caller keeps holds
	// no growth slack and a fresh one costs two allocations.
	n := sc.trueView.NumPhotos()
	if cap(photos) < len(sol.Photos) {
		photos = make([]par.PhotoID, 0, len(sol.Photos))
	}
	if cap(archived) < n-len(sol.Photos) {
		archived = make([]par.PhotoID, 0, n-len(sol.Photos))
	}
	photos = append(photos, sol.Photos...)
	res.Solution = par.Solution{Photos: photos, Score: re.Score(), Cost: sol.Cost}

	// The rescore evaluator's membership is exactly the solution set, so the
	// archived complement falls out without a marker allocation.
	for ph := 0; ph < n; ph++ {
		if !re.Contains(par.PhotoID(ph)) {
			archived = append(archived, par.PhotoID(ph))
		}
	}
	res.Archived = archived
	t2 := time.Now()
	res.RescoreTime = t2.Sub(t1)

	if !opts.SkipBound {
		if err := ctx.Err(); err != nil {
			p.scratch.Put(sc)
			return err
		}
		res.OnlineBound = sc.bound.OnlineBound(&sc.trueView, re, archived)
		if res.OnlineBound > 0 {
			res.CertifiedRatio = res.Solution.Score / res.OnlineBound
		} else {
			res.CertifiedRatio = 1
		}
		res.BoundTime = time.Since(t2)
	}
	p.scratch.Put(sc)
	return nil
}

// PipelineSolver adapts the staged engine to par.Solver for harnesses that
// inject solvers generically (the user-study judge, solver comparison
// tables): each Solve wraps the instance in a vector-less dataset and runs
// Prepare + CELF Run with the solve's own budget, skipping the online bound.
type PipelineSolver struct {
	// OnCELFStats receives the CELF work report after each solve.
	OnCELFStats func(celf.Stats)
}

// Name implements par.Solver.
func (s *PipelineSolver) Name() string { return AlgoCELF.DisplayName() }

// Solve implements par.Solver by routing through the staged engine.
func (s *PipelineSolver) Solve(ctx context.Context, inst *par.Instance) (par.Solution, error) {
	p, err := Prepare(ctx, &dataset.Dataset{Instance: inst}, PrepareOptions{})
	if err != nil {
		return par.Solution{}, err
	}
	res, err := p.Run(ctx, RunOptions{
		Budget:      inst.Budget,
		SkipBound:   true,
		OnCELFStats: s.OnCELFStats,
	})
	if err != nil {
		return par.Solution{}, err
	}
	return res.Solution, nil
}
