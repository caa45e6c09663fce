package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a --trace 0 run sets a workload up from
// scratch; setup_s is their median.
const setupReps = 3

// Traced serve runs send a fixed op sequence: one pass over every
// (archive, budget) pair for serve_sweep, and as many fresh archives for
// serve_ingest.
const (
	tracedSweepOps  = sweepTenants * len(ladder)
	tracedIngestOps = 30
)

// serveOp is one op's input: who sends which archive under which budget.
type serveOp struct {
	tenant string
	arch   *archive
	rung   int
	key    string // the (archive, budget) pair, for the gate
}

func (o serveOp) budget() float64 { return o.arch.budget(o.rung) }

// sweepOp returns serve_sweep's op i: tenants and rungs cycle together, and
// since 8 and 5 are coprime, 40 consecutive ops cover every pair once.
func sweepOp(as []*archive, i int) serveOp {
	t, r := i%sweepTenants, i%len(ladder)
	return serveOp{tenant: fmt.Sprintf("tenant-%d", t), arch: as[t], rung: r, key: fmt.Sprintf("archive%d/rung%d", t, r)}
}

// ingestOp returns serve_ingest's op i: a tenant never seen before (the
// tenant is mixed into the instance digest, so the server sees a new
// archive) sending one of the pooled bodies.
func ingestOp(pool []*archive, i int) serveOp {
	b, r := i%ingestPool, i%len(ladder)
	return serveOp{tenant: fmt.Sprintf("ingest-%d", i), arch: pool[b], rung: r, key: fmt.Sprintf("body%d/rung%d", b, r)}
}

// fillOp returns serve_ingest's set-up op j, which fills the cache.
func fillOp(pool []*archive, j int) serveOp {
	o := ingestOp(pool, j)
	o.tenant = fmt.Sprintf("fill-%d", j)
	return o
}

// send runs one untimed (set-up) op against the server and checks it.
func (r *run) send(srv *serverProc, c *http.Client, o serveOp) {
	raw, _, err := srv.solve(c, "", o.tenant, o.arch.body, o.budget())
	r.checkWire(o, raw, err)
}

// checkWire passes one HTTP answer through the gate. A transport error, a
// non-2xx answer, an undecodable body and a failed check each count as a
// failed op.
func (r *run) checkWire(o serveOp, raw []byte, err error) {
	r.attempted++
	if err == nil {
		var w *wireAnswer
		if w, err = decodeAnswer(raw); err == nil && !r.gate.check(o.key, o.arch.ref, w.answer()) {
			r.failed++
		}
	}
	if err != nil {
		r.problem("%s %s: %v", o.tenant, o.key, err)
	}
}

// timedLoop sends ops until the run's time is up (or n ops when n > 0) and
// records their latencies and the server's peak RSS over them. A timed run
// ends on a multiple of cycle ops, so every archive is sent equally often.
// Answers are checked after the clock stops. between, when not nil, runs
// after each op, outside its latency.
func (r *run) timedLoop(srv *serverProc, c *http.Client, n, cycle int, op func(i int) serveOp, between func() error) (int, error) {
	type sent struct {
		o   serveOp
		raw []byte
		err error
	}
	var done []sent
	pid := srv.cmd.Process.Pid
	if err := resetPeakRSS(pid); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; n > 0 && i < n || n <= 0 && (time.Since(start) < r.seconds || i%cycle != 0); i++ {
		o := op(i)
		raw, d, err := srv.solve(c, opRequestID(i), o.tenant, o.arch.body, o.budget())
		r.lat = append(r.lat, ms(d))
		done = append(done, sent{o, raw, err})
		if between != nil {
			if err := between(); err != nil {
				return 0, err
			}
		}
	}
	r.wall = time.Since(start)
	var err error
	if r.rssMB, err = peakRSSMB(pid); err != nil {
		return 0, err
	}
	for _, s := range done {
		r.checkWire(s.o, s.raw, s.err)
	}
	return len(done), nil
}

// opRequestID names timed op i in the server's span log.
func opRequestID(i int) string { return fmt.Sprintf("perfbench-op-%d", i) }

// expect is one self-validation: it records a failure when got != want.
func (r *run) expect(what string, got, want float64) {
	r.attempted++
	if got != want {
		r.problem("self-validation: %s = %v, want %v", what, got, want)
	}
}

// serveSweep: 8 tenants' archives are ingested, written back as snapshots,
// and served by a restarted server after warm-fill; every timed op is a
// cache hit, so an op is decode plus a warm Run.
func serveSweep(r *run, traced bool) error {
	as, err := p1kSet(r.seed, 0, sweepTenants)
	if err != nil {
		return err
	}
	dg := newInputDigest()
	dg.archives(as)
	r.logf("inputs: %d P-1K archives, %.1f MB body each (first), input digest %s", len(as), float64(len(as[0].body))/1e6, dg)

	c := newClient()
	reps := setupReps
	if traced {
		reps = 1
	}
	var srv *serverProc
	for rep := 0; rep < reps; rep++ {
		if srv != nil {
			srv.stop()
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("snaps-%d", rep))
		t0 := time.Now()
		if srv, err = r.sweepSetup(c, dir, as); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer srv.stop()
	m0, err := srv.metrics(c)
	if err != nil {
		return err
	}
	r.expect("snapshot loads at warm-fill", m0[mLoads], sweepTenants)

	n := 0
	if traced {
		n = tracedSweepOps
	}
	ops, err := r.timedLoop(srv, c, n, sweepTenants, func(i int) serveOp { return sweepOp(as, i) }, nil)
	if err != nil {
		return err
	}
	m1, err := srv.metrics(c)
	if err != nil {
		return err
	}
	r.expect("cache misses in timed ops", m1[mMisses]-m0[mMisses], 0)
	r.expect("cache hits in timed ops", m1[mHits]-m0[mHits], float64(ops))
	if !traced {
		return nil
	}
	return r.replaySweep(as)
}

// sweepSetup launches a server on an empty snapshot directory, ingests every
// archive, waits for the snapshot write-back, restarts the server and waits
// for /readyz after its warm-fill.
func (r *run) sweepSetup(c *http.Client, dir string, as []*archive) (*serverProc, error) {
	log := filepath.Join(r.dir, "server.log")
	srv, err := startServer(r.server, log, "-snapshot-dir", dir)
	if err != nil {
		return nil, err
	}
	if err := srv.waitReady(c); err != nil {
		srv.stop()
		return nil, err
	}
	for i := range as {
		r.send(srv, c, sweepOp(as, i))
	}
	m, err := srv.waitCounter(c, mWrites, float64(len(as)))
	if err != nil {
		srv.stop()
		return nil, err
	}
	r.expect("snapshot writes after ingest", m[mWrites], float64(len(as)))
	srv.stop()
	if srv, err = startServer(r.server, log, "-snapshot-dir", dir); err != nil {
		return nil, err
	}
	if err := srv.waitReady(c); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

// serveIngest: the prepare cache holds 4 entries and every timed op is an
// archive the server has never seen, so each op decodes, runs a cold
// Prepare, writes a snapshot back, evicts one entry and runs.
func serveIngest(r *run, traced bool) error {
	pool, err := p1kSet(r.seed, 100, ingestPool)
	if err != nil {
		return err
	}
	dg := newInputDigest()
	dg.archives(pool)
	r.logf("inputs: %d pooled P-1K bodies, cache bound %d, input digest %s", len(pool), ingestCache, dg)

	c := newClient()
	reps := setupReps
	if traced {
		reps = 1
	}
	var srv *serverProc
	var dir string
	for rep := 0; rep < reps; rep++ {
		if srv != nil {
			srv.stop()
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("snaps-%d", rep))
		t0 := time.Now()
		if srv, err = startServer(r.server, filepath.Join(r.dir, "server.log"),
			"-snapshot-dir", dir, "-prepare-cache-entries", fmt.Sprint(ingestCache)); err != nil {
			return err
		}
		if err := srv.waitReady(c); err != nil {
			srv.stop()
			return err
		}
		// Each set-up fills with other bodies, so setup_s, their median,
		// rests on more of the seed's archives.
		for j := 0; j < ingestCache; j++ {
			r.send(srv, c, fillOp(pool, rep*ingestCache+j))
		}
		// The fill's write-backs finish before timing, so they never overlap
		// a timed op.
		if _, err := srv.waitCounter(c, mWrites, ingestCache); err != nil {
			srv.stop()
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if rep < reps-1 {
			srv.stop()
			srv = nil
			os.RemoveAll(dir)
		}
	}
	defer srv.stop()
	m0, err := srv.metrics(c)
	if err != nil {
		return err
	}
	n := 0
	if traced {
		n = tracedIngestOps
	}
	prune := func() error { return pruneSnapshots(dir, 2*ingestCache) }
	ops, err := r.timedLoop(srv, c, n, ingestPool, func(i int) serveOp { return ingestOp(pool, i) }, prune)
	if err != nil {
		return err
	}
	m1, err := srv.waitCounter(c, mWrites, m0[mWrites]+float64(ops))
	if err != nil {
		return err
	}
	r.expect("cache misses in timed ops", m1[mMisses]-m0[mMisses], float64(ops))
	r.expect("snapshot writes in timed ops", m1[mWrites]-m0[mWrites], float64(ops))
	r.attempted++
	if ev := m1[mEvictions] - m0[mEvictions]; ev < float64(ops-ingestCache) {
		r.problem("self-validation: %v evictions in %d timed ops, want ≥ %d", ev, ops, ops-ingestCache)
	}
	if !traced {
		return nil
	}
	return r.replayIngest(pool)
}

// pruneSnapshots deletes all but the newest keep snapshot files in dir. The
// server never loads them again: every serve_ingest op is a new fingerprint,
// and the cache has evicted each of them. A run writes ~1.3 GB of snapshots,
// past the kernel's background-writeback threshold (10% of memory), so
// without pruning the disk would join the timed path part-way through a run.
// Deleted before writeback, their dirty pages never reach the disk. In-flight
// writes are *.tmp files and are left alone.
func pruneSnapshots(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type snap struct {
		path string
		mod  time.Time
	}
	var snaps []snap
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".snap" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // renamed or removed since ReadDir
		}
		snaps = append(snaps, snap{filepath.Join(dir, e.Name()), info.ModTime()})
	}
	if len(snaps) <= keep {
		return nil
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].mod.After(snaps[j].mod) })
	for _, s := range snaps[keep:] {
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
