// Snapshot-backed warm restarts: with -snapshot-dir set, every cold Prepare
// persists its finished product (the flat kernel slabs plus the finalized
// instance, see internal/phocus/snapshot.go for the wire format) under the
// same fingerprint that keys the prepared-instance cache. On the next start
// the store warm-fills the cache before /readyz goes green, and any cache
// miss checks the store before paying for sparsification + kernel builds.
// Corrupt files never reach the solver: every section is checksummed, a
// failed load is quarantined (renamed *.snap.corrupt), counted on /metrics,
// and the request falls back to a cold Prepare.
package main

import (
	"context"
	"errors"
	"os"
	"time"

	"phocus/internal/obs"
	"phocus/internal/phocus"
)

// shortFP abbreviates a fingerprint for log lines.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// warmFill loads every snapshot in the store into the prepare cache (oldest
// first, so the LRU keeps the newest) and then flips the /readyz gate. Runs
// once, in the background, at startup.
func (s *server) warmFill() {
	defer s.snapWarmed.Store(true)
	t0 := time.Now()
	stats, err := s.snaps.WarmFill(s.cache,
		func(fp string, p *phocus.Prepared, d time.Duration) {
			obs.RecordSnapshotLoad(s.reg, d)
		},
		func(fp string, err error) {
			obs.RecordSnapshotCorrupt(s.reg)
			s.logger.Warn("corrupt snapshot quarantined during warm-fill",
				"fingerprint", shortFP(fp), "err", err)
		})
	if err != nil {
		s.logger.Error("snapshot warm-fill", "err", err)
		return
	}
	obs.RecordSnapshotTempSwept(s.reg, int64(stats.TempSwept))
	s.logger.Info("snapshot warm-fill done",
		"dir", s.snaps.Dir(), "loaded", stats.Loaded, "corrupt", stats.Corrupt,
		"temp_swept", stats.TempSwept, "bytes", stats.Bytes,
		"elapsed", time.Since(t0).Round(time.Millisecond))
}

// loadSnapshot is the request paths' one snapshot load: it returns the
// persisted Prepared for fp, or nil when the store holds no usable one. A
// flipped byte anywhere in the file fails a checksum and lands in the
// ErrBadSnapshot branch: the file is quarantined (renamed *.snap.corrupt)
// and counted, so unverified bytes never reach a solver. Callers decide what
// nil means — /solve prepares cold, a delta answers 404.
func (s *server) loadSnapshot(ctx context.Context, fp string) *phocus.Prepared {
	logger := obs.Logger(ctx)
	t0 := time.Now()
	p, err := s.snaps.Load(fp)
	switch {
	case err == nil:
		elapsed := time.Since(t0)
		obs.RecordSnapshotLoad(s.reg, elapsed)
		logger.Info("prepared instance loaded from snapshot",
			"fingerprint", shortFP(fp), "bytes", p.SizeBytes(),
			"load", elapsed.Round(time.Millisecond))
		return p
	case errors.Is(err, phocus.ErrBadSnapshot):
		obs.RecordSnapshotCorrupt(s.reg)
		if qerr := s.snaps.Quarantine(fp); qerr != nil {
			logger.Error("snapshot quarantine failed", "fingerprint", shortFP(fp), "err", qerr)
		}
		logger.Warn("corrupt snapshot quarantined", "fingerprint", shortFP(fp), "err", err)
	case !os.IsNotExist(err):
		// Environmental (permissions, I/O): the caller falls back, say why.
		logger.Warn("snapshot load failed", "fingerprint", shortFP(fp), "err", err)
	}
	return nil
}

// prepareViaSnapshot is the cache-miss path when a snapshot store is
// attached: load the persisted snapshot if one exists, otherwise run the
// cold prepare and write its snapshot back in the background.
func (s *server) prepareViaSnapshot(ctx context.Context, fp string, prepare func() (*phocus.Prepared, error)) (*phocus.Prepared, error) {
	if p := s.loadSnapshot(ctx, fp); p != nil {
		return p, nil
	}
	p, err := prepare()
	if err != nil {
		return nil, err
	}
	// Write-back happens off the request path: the response should not wait
	// on disk, and a failed write only costs the next restart a cold start.
	go s.saveSnapshot(fp, p)
	return p, nil
}

// saveSnapshot persists one prepared instance and records the write.
func (s *server) saveSnapshot(fp string, p *phocus.Prepared) {
	path, size, err := s.snaps.Save(p)
	if err != nil {
		s.logger.Warn("snapshot save failed", "fingerprint", shortFP(fp), "err", err)
		return
	}
	obs.RecordSnapshotWrite(s.reg, size)
	s.logger.Info("snapshot saved", "path", path, "bytes", size)
}
