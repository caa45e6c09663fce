package obs

import "time"

// Prepared-snapshot metric vocabulary. The warm-restart path (snapshot
// store + cache warm-fill in phocus-server) is instrumented through these
// helpers so restarts' cold/warm behaviour shows up next to the prepare-
// cache metrics:
//
//	phocus_snapshot_load_total     snapshots decoded and admitted (warm-fill
//	                               and lazy loads alike)
//	phocus_snapshot_write_total    snapshots persisted after a cold Prepare
//	phocus_snapshot_corrupt_total  snapshots that failed verification and
//	                               were quarantined
//	phocus_snapshot_load_seconds   decode latency histogram
//	phocus_snapshot_bytes_written  cumulative snapshot bytes persisted

// RecordSnapshotLoad records one successful snapshot load.
func RecordSnapshotLoad(reg *Registry, elapsed time.Duration) {
	reg.Counter("phocus_snapshot_load_total").Inc()
	reg.Histogram("phocus_snapshot_load_seconds", DefBuckets).Observe(elapsed.Seconds())
}

// RecordSnapshotWrite records one snapshot persisted to the store.
func RecordSnapshotWrite(reg *Registry, bytes int64) {
	reg.Counter("phocus_snapshot_write_total").Inc()
	if bytes > 0 {
		reg.Counter("phocus_snapshot_bytes_written").Add(bytes)
	}
}

// RecordSnapshotCorrupt records one snapshot rejected by verification and
// quarantined.
func RecordSnapshotCorrupt(reg *Registry) {
	reg.Counter("phocus_snapshot_corrupt_total").Inc()
}

// RecordSnapshotTempSwept counts orphaned snapshot temp files deleted
// during the store's warm-fill scan (crash between temp-write and rename).
func RecordSnapshotTempSwept(reg *Registry, n int64) {
	if n > 0 {
		reg.Counter("phocus_snapshot_temp_swept_total").Add(n)
	}
}

// RecordJobTempSwept counts orphaned compaction-snapshot temp files deleted
// during a jobs-store replay (crash between temp-write and rename).
func RecordJobTempSwept(reg *Registry, n int64) {
	if n > 0 {
		reg.Counter("phocus_jobs_temp_swept_total").Add(n)
	}
}
