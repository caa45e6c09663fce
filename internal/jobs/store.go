package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"phocus/internal/fleet"
)

// Store is the durable job table: an in-memory map of jobs backed by an
// append-only JSONL write-ahead log plus a periodic snapshot, both under one
// data directory. Every mutation appends one WAL record before it is
// acknowledged; on startup the snapshot is loaded and the WAL replayed on
// top, so queued and running jobs survive a crash (running jobs are
// re-queued, exactly once, during replay). A Store opened with an empty
// directory is memory-only — same API, no durability.
//
// WAL format (see DESIGN.md §7): one JSON object per line, either
//
//	{"t":"submit","job":{...full job record...}}
//	{"t":"update","up":{"id":...,"state":...,"attempts":...,"error":...,"result":...,"at":...}}
//
// A corrupt line — a torn tail from a crash mid-append, or any line that
// does not parse — is skipped and counted (ReplayStats.Corrupt, surfaced as
// phocus_jobs_wal_corrupt_total); replay continues with the next line.
type Store struct {
	// Store methods are called under the Service mutex (or sequentially in
	// tests); the Store itself adds no locking.
	dir       string
	wal       *os.File
	sync      bool
	snapEvery int
	appends   int

	jobs    map[string]*Job
	nextSeq uint64

	maxTerminal int
}

// StoreOptions tunes durability behaviour.
type StoreOptions struct {
	// NoSync skips the fsyncs after each WAL append and inside compaction
	// (benchmarks only; a crash may then lose the last few acknowledged
	// records).
	NoSync bool
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appends (0 = default 1024).
	SnapshotEvery int
	// MaxTerminal bounds how many finished jobs are retained for status
	// queries; the oldest are pruned beyond it (0 = default 4096, < 0 =
	// unlimited).
	MaxTerminal int
}

// ReplayStats reports what Open recovered from disk.
type ReplayStats struct {
	// Jobs is the total number of jobs recovered (all states).
	Jobs int
	// Queued counts jobs recovered in state queued (requeued included).
	Queued int
	// Requeued counts jobs found running in the log — interrupted by the
	// crash — and moved back to queued during replay.
	Requeued int
	// Corrupt counts skipped WAL records (torn tail or garbage lines).
	Corrupt int
	// TempSwept counts orphaned snapshot temp files — a crash between
	// compact's temp-write and rename — deleted during replay.
	TempSwept int
}

// walRecord is one WAL line.
type walRecord struct {
	T   string     `json:"t"`
	Job *Job       `json:"job,omitempty"`
	Up  *jobUpdate `json:"up,omitempty"`
}

// jobUpdate is the mutation half of the WAL vocabulary: a state transition
// with its payload. Zero fields mean "leave unchanged".
type jobUpdate struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Result is the runner's opaque output — arbitrary bytes, so it rides
	// the WAL base64-encoded rather than as raw JSON.
	Result []byte    `json:"result,omitempty"`
	At     time.Time `json:"at"`
}

// snapshot is the periodic full-state checkpoint; the WAL is truncated
// after it lands.
type snapshot struct {
	NextSeq uint64 `json:"next_seq"`
	Jobs    []*Job `json:"jobs"`
}

func (s *Store) walPath() string  { return filepath.Join(s.dir, "wal.jsonl") }
func (s *Store) snapPath() string { return filepath.Join(s.dir, "snapshot.json") }

// Open loads (or initializes) the store under dir and returns it with the
// replay accounting. An empty dir yields a memory-only store. Jobs found in
// state running were interrupted by a crash and are re-queued exactly once;
// the post-replay state is immediately compacted into a fresh snapshot so a
// second crash cannot requeue them again.
func Open(dir string, opts StoreOptions) (*Store, ReplayStats, error) {
	s := &Store{
		dir:         dir,
		sync:        !opts.NoSync,
		snapEvery:   opts.SnapshotEvery,
		jobs:        make(map[string]*Job),
		nextSeq:     1,
		maxTerminal: opts.MaxTerminal,
	}
	if s.snapEvery <= 0 {
		s.snapEvery = 1024
	}
	if s.maxTerminal == 0 {
		s.maxTerminal = 4096
	}
	var stats ReplayStats
	if dir == "" {
		return s, stats, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("jobs: create data dir: %w", err)
	}
	stats.TempSwept = s.sweepTemp()
	if err := s.loadSnapshot(); err != nil {
		return nil, stats, err
	}
	corrupt, err := s.replayWAL()
	if err != nil {
		return nil, stats, err
	}
	stats.Corrupt = corrupt
	for _, j := range s.jobs {
		if j.Tenant == "" {
			// Pre-tenancy (v1) record: adopt it into the default tenant so an
			// upgraded shard keeps serving its old jobs under the new model.
			j.Tenant = fleet.DefaultTenant
		}
		if j.State == StateRunning {
			j.State = StateQueued
			j.StartedAt = time.Time{}
			stats.Requeued++
		}
		if j.State == StateQueued {
			stats.Queued++
		}
	}
	s.prune()
	stats.Jobs = len(s.jobs)
	// Compact immediately: the requeues above become durable and the next
	// boot replays a clean snapshot instead of the whole history.
	if err := s.compact(); err != nil {
		return nil, stats, err
	}
	return s, stats, nil
}

// sweepTemp deletes orphaned *.tmp files in the data directory. A crash
// between compact's temp-write and rename leaves snapshot.json.tmp behind;
// the rename never happened, so the temp was never authoritative state —
// without the sweep each such crash would strand one more file forever.
func (s *Store) sweepTemp() int {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.tmp"))
	if err != nil {
		return 0
	}
	swept := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			swept++
		}
	}
	return swept
}

// loadSnapshot reads snapshot.json if present.
func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(s.snapPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		// A torn snapshot write means the rename never happened on any
		// supported platform; a parse failure here is disk corruption and
		// deserves a loud stop, not silent data loss.
		return fmt.Errorf("jobs: corrupt snapshot %s: %w", s.snapPath(), err)
	}
	for _, j := range snap.Jobs {
		s.jobs[j.ID] = j
	}
	if snap.NextSeq > s.nextSeq {
		s.nextSeq = snap.NextSeq
	}
	return nil
}

// replayWAL applies wal.jsonl on top of the snapshot, skipping (and
// counting) records that do not parse.
func (s *Store) replayWAL() (corrupt int, err error) {
	f, err := os.Open(s.walPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("jobs: open wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		// A final line without a trailing newline is a torn append; try to
		// parse it anyway (it may just predate crash-interrupted fsync).
		if len(line) > 0 {
			var rec walRecord
			if uerr := json.Unmarshal(line, &rec); uerr != nil || !s.apply(&rec) {
				corrupt++
			}
		}
		if err == io.EOF {
			return corrupt, nil
		}
		if err != nil {
			return corrupt, fmt.Errorf("jobs: read wal: %w", err)
		}
	}
}

// apply folds one WAL record into the job map; both replay and the live
// write path go through it so disk state and memory state cannot drift.
// It reports false for records it does not recognize.
func (s *Store) apply(rec *walRecord) bool {
	switch rec.T {
	case "submit":
		if rec.Job == nil || rec.Job.ID == "" {
			return false
		}
		if _, ok := s.jobs[rec.Job.ID]; ok {
			return true // duplicate replay after a snapshot race; first wins
		}
		j := *rec.Job
		s.jobs[j.ID] = &j
		if j.Seq >= s.nextSeq {
			s.nextSeq = j.Seq + 1
		}
		return true
	case "update":
		up := rec.Up
		if up == nil || up.ID == "" || !up.State.Valid() {
			return false
		}
		j, ok := s.jobs[up.ID]
		if !ok {
			// The job this updates was pruned or its submit record was
			// lost; the record is well-formed, so it is not corruption.
			return true
		}
		j.State = up.State
		if up.Attempts > 0 {
			j.Attempts = up.Attempts
		}
		j.Error = up.Error
		switch {
		case up.State == StateRunning:
			j.StartedAt = up.At
		case up.State == StateQueued: // checkpoint/requeue
			j.StartedAt = time.Time{}
			j.FinishedAt = time.Time{}
		case up.State.Terminal():
			j.FinishedAt = up.At
			j.Result = up.Result
			j.Body = nil // history does not need the payload
		}
		return true
	}
	return false
}

// append writes one record to the WAL (fsynced unless NoSync). Compaction
// is NOT triggered here: the record being appended has not been applied to
// the job map yet, so compacting now would snapshot state without it and
// then truncate its WAL line — losing the mutation. Callers invoke
// maybeCompact after applying.
func (s *Store) append(rec *walRecord) error {
	if s.dir == "" {
		return nil
	}
	if s.wal == nil {
		f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("jobs: open wal: %w", err)
		}
		s.wal = f
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encode wal record: %w", err)
	}
	data = append(data, '\n')
	if _, err := s.wal.Write(data); err != nil {
		return fmt.Errorf("jobs: append wal: %w", err)
	}
	if s.sync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("jobs: sync wal: %w", err)
		}
	}
	s.appends++
	return nil
}

// maybeCompact folds the WAL into a snapshot once enough appends piled up.
func (s *Store) maybeCompact() error {
	if s.dir == "" || s.appends < s.snapEvery {
		return nil
	}
	return s.compact()
}

// compact checkpoints the full job table into snapshot.json (write-temp +
// rename) and truncates the WAL. Unless NoSync, the temp file is fsynced
// before the rename and the directory before the truncate: otherwise a power
// loss could persist the rename without the snapshot's bytes, after the WAL
// holding the same jobs was already emptied.
func (s *Store) compact() error {
	if s.dir == "" {
		return nil
	}
	snap := snapshot{NextSeq: s.nextSeq, Jobs: s.sortedJobs()}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("jobs: encode snapshot: %w", err)
	}
	tmp := s.snapPath() + ".tmp"
	if err := writeFile(tmp, data, s.sync); err != nil {
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return fmt.Errorf("jobs: install snapshot: %w", err)
	}
	if s.sync {
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("jobs: sync data dir: %w", err)
		}
	}
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	if err := os.Truncate(s.walPath(), 0); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobs: truncate wal: %w", err)
	}
	s.appends = 0
	return nil
}

// writeFile is os.WriteFile that, when sync is set, fsyncs the file before
// closing it.
func writeFile(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making the renames and creations in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// sortedJobs returns the jobs ordered by submission sequence.
func (s *Store) sortedJobs() []*Job {
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// prune drops the oldest terminal jobs beyond the retention bound.
func (s *Store) prune() {
	if s.maxTerminal < 0 {
		return
	}
	var terminal []*Job
	for _, j := range s.jobs {
		if j.State.Terminal() {
			terminal = append(terminal, j)
		}
	}
	if len(terminal) <= s.maxTerminal {
		return
	}
	sort.Slice(terminal, func(a, b int) bool { return terminal[a].Seq < terminal[b].Seq })
	for _, j := range terminal[:len(terminal)-s.maxTerminal] {
		delete(s.jobs, j.ID)
	}
}

// Submit assigns the job its sequence number, logs it and inserts it into
// the table. The job must arrive in state queued with a non-empty ID.
func (s *Store) Submit(j *Job) error {
	if j.ID == "" || j.State != StateQueued {
		return fmt.Errorf("jobs: bad submission %+v", j)
	}
	if _, ok := s.jobs[j.ID]; ok {
		return fmt.Errorf("jobs: duplicate job ID %q", j.ID)
	}
	j.Seq = s.nextSeq
	cp := *j
	if err := s.append(&walRecord{T: "submit", Job: &cp}); err != nil {
		return err
	}
	s.nextSeq++
	s.jobs[cp.ID] = &cp
	return s.maybeCompact()
}

// Update logs a state transition and applies it, returning the job's new
// value. Unknown IDs return ErrNotFound.
func (s *Store) Update(up *jobUpdate) (Job, error) {
	if _, ok := s.jobs[up.ID]; !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, up.ID)
	}
	if up.At.IsZero() {
		up.At = time.Now()
	}
	if err := s.append(&walRecord{T: "update", Up: up}); err != nil {
		return Job{}, err
	}
	s.apply(&walRecord{T: "update", Up: up})
	j := *s.jobs[up.ID]
	if up.State.Terminal() {
		s.prune()
	}
	return j, s.maybeCompact()
}

// Get returns a copy of the job (Body and Result share backing arrays and
// must be treated read-only).
func (s *Store) Get(id string) (Job, bool) {
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of all jobs ordered by submission, with the payload
// and result stripped (fetch them per job via Get).
func (s *Store) List() []Job {
	sorted := s.sortedJobs()
	out := make([]Job, len(sorted))
	for i, j := range sorted {
		out[i] = *j
		out[i].Body = nil
		out[i].Result = nil
	}
	return out
}

// Len returns the number of retained jobs (all states).
func (s *Store) Len() int { return len(s.jobs) }

// Close flushes a final snapshot and releases the WAL handle.
func (s *Store) Close() error {
	if s.dir == "" {
		return nil
	}
	err := s.compact()
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	return err
}

// Abandon releases file handles WITHOUT a final snapshot or checkpoint —
// the on-disk state stays exactly as the last append left it, as a crash
// would. Crash-recovery tests use it to simulate SIGKILL in-process.
func (s *Store) Abandon() {
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
}
