package obs

import "time"

// Job-service metric vocabulary. The async job layer (internal/jobs) is
// instrumented entirely through these helpers so phocus-server's dashboards
// see queue pressure and job outcomes next to the solve metrics:
//
//	phocus_jobs_enqueued_total            admitted submissions
//	phocus_jobs_rejected_total            submissions refused by admission control (429)
//	phocus_jobs_completed_total           jobs reaching state done
//	phocus_jobs_failed_total              jobs reaching state failed
//	phocus_jobs_canceled_total            jobs reaching state canceled
//	phocus_jobs_requeued_total            running jobs checkpointed back to queued
//	phocus_jobs_deferred_total            deferred admissions (retention reruns included)
//	phocus_jobs_deferred                  gauge: jobs waiting out a NotBefore deadline
//	phocus_jobs_wal_corrupt_total         WAL records skipped during replay
//	phocus_jobs_queue_depth               gauge: queued jobs
//	phocus_jobs_queue_bytes               gauge: queued payload bytes
//	phocus_jobs_running                   gauge: jobs currently executing
//	phocus_jobs_wait_seconds              histogram: submit → start
//	phocus_jobs_run_seconds               histogram: start → terminal

// RecordJobEnqueued counts one admitted submission and refreshes the queue
// gauges.
func RecordJobEnqueued(reg *Registry, depth int, bytes int64) {
	reg.Counter("phocus_jobs_enqueued_total").Inc()
	SetJobQueueGauges(reg, depth, bytes)
}

// RecordJobRejected counts one submission refused by admission control.
func RecordJobRejected(reg *Registry) {
	reg.Counter("phocus_jobs_rejected_total").Inc()
}

// RecordJobStart observes the queue wait of a job entering execution.
func RecordJobStart(reg *Registry, wait time.Duration) {
	reg.Histogram("phocus_jobs_wait_seconds", DefBuckets).Observe(wait.Seconds())
}

// RecordJobDone counts a terminal transition ("done", "failed" or
// "canceled") and observes the run time.
func RecordJobDone(reg *Registry, state string, run time.Duration) {
	switch state {
	case "done":
		reg.Counter("phocus_jobs_completed_total").Inc()
	case "failed":
		reg.Counter("phocus_jobs_failed_total").Inc()
	case "canceled":
		reg.Counter("phocus_jobs_canceled_total").Inc()
	}
	reg.Histogram("phocus_jobs_run_seconds", DefBuckets).Observe(run.Seconds())
}

// RecordJobRequeued counts running jobs checkpointed back to queued
// (shutdown drain or crash replay).
func RecordJobRequeued(reg *Registry, n int64) {
	if n > 0 {
		reg.Counter("phocus_jobs_requeued_total").Add(n)
	}
}

// RecordJobWALCorrupt counts WAL records skipped during replay.
func RecordJobWALCorrupt(reg *Registry, n int64) {
	if n > 0 {
		reg.Counter("phocus_jobs_wal_corrupt_total").Add(n)
	}
}

// SetJobQueueGauges refreshes the queue pressure gauges.
func SetJobQueueGauges(reg *Registry, depth int, bytes int64) {
	reg.Gauge("phocus_jobs_queue_depth").Set(float64(depth))
	reg.Gauge("phocus_jobs_queue_bytes").Set(float64(bytes))
}

// SetJobsRunning refreshes the running-jobs gauge.
func SetJobsRunning(reg *Registry, n int64) {
	reg.Gauge("phocus_jobs_running").Set(float64(n))
}

// RecordJobDeferred counts one deferred admission and refreshes the
// pending-deferral gauge (phocus_jobs_deferred_total / phocus_jobs_deferred).
func RecordJobDeferred(reg *Registry, pending int) {
	reg.Counter("phocus_jobs_deferred_total").Inc()
	SetJobsDeferred(reg, pending)
}

// SetJobsDeferred refreshes the gauge of jobs still waiting out a NotBefore
// deadline.
func SetJobsDeferred(reg *Registry, n int) {
	reg.Gauge("phocus_jobs_deferred").Set(float64(n))
}
