package phocus

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
	"unsafe"
)

// SnapshotStore is a directory of prepared-instance snapshots, one file per
// fingerprint: <fingerprint>.snap, written atomically (temp + rename) so a
// crash mid-write never leaves a half-snapshot under the final name. Corrupt
// files are quarantined by renaming to <name>.snap.corrupt, which keeps the
// evidence for inspection while guaranteeing the store never retries a file
// that failed its checksums.
type SnapshotStore struct {
	dir string
}

// OpenSnapshotStore opens (creating if needed) the snapshot directory.
func OpenSnapshotStore(dir string) (*SnapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("phocus: snapshot dir: %w", err)
	}
	return &SnapshotStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *SnapshotStore) Dir() string { return s.dir }

// Path returns the file path a fingerprint's snapshot lives at.
func (s *SnapshotStore) Path(fp string) string {
	return filepath.Join(s.dir, fp+".snap")
}

// Save serializes the Prepared and installs it under its fingerprint,
// returning the path and file size. An existing snapshot for the same
// fingerprint is replaced atomically (same content by construction — the
// fingerprint covers everything that feeds Prepare). The file is written
// straight from the Prepared's slabs (writeSnapshot) to a temporary file
// of its own, which the rename installs.
func (s *SnapshotStore) Save(p *Prepared) (path string, size int64, err error) {
	f, err := os.CreateTemp(s.dir, "*.snap.tmp")
	if err != nil {
		return "", 0, fmt.Errorf("phocus: write snapshot: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 64<<10)
	// The fingerprint comes out of the same read-locked write as the bytes
	// rather than a second p.Fingerprint() call: an ApplyDelta landing
	// between the two would otherwise install the pre-churn bytes under the
	// post-churn name.
	fp, size, err := writeSnapshot(bw, p)
	if err != nil {
		f.Close()
		return "", 0, err
	}
	err = bw.Flush()
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", 0, fmt.Errorf("phocus: write snapshot: %w", err)
	}
	path = s.Path(fp)
	if err := os.Rename(tmp, path); err != nil {
		return "", 0, fmt.Errorf("phocus: install snapshot: %w", err)
	}
	return path, size, nil
}

// Load reads and decodes the snapshot for the fingerprint. A missing file
// returns an error satisfying os.IsNotExist; a corrupt one wraps ErrBadSnapshot (the
// embedded fingerprint disagreeing with the filename counts as corruption —
// it means the file was renamed or its header tampered with).
func (s *SnapshotStore) Load(fp string) (*Prepared, error) {
	p, err := LoadSnapshot(s.Path(fp))
	if err != nil {
		return nil, err
	}
	got, _ := p.Fingerprint()
	if err := checkNamed(fp, got); err != nil {
		return nil, err
	}
	return p, nil
}

// Owner returns the tenant that owns the fingerprint's snapshot. It reads
// only the file's header block and its checksummed META section, so telling
// a tenant that a snapshot is not theirs costs no kernel read and judges
// none of the rest of the file. Errors read as Load's do.
func (s *SnapshotStore) Owner(fp string) (string, error) {
	f, err := os.Open(s.Path(fp))
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	head := make([]byte, min(st.Size(), snapHeaderMax))
	if _, err := f.ReadAt(head, 0); err != nil {
		return "", fmt.Errorf("phocus: read snapshot header: %w", err)
	}
	got, table, err := parseSnapHeader(head, int(st.Size()))
	if err != nil {
		return "", err
	}
	if err := checkNamed(fp, got); err != nil {
		return "", err
	}
	e, ok := table[secMeta]
	if !ok {
		return "", fmt.Errorf("phocus: missing section %d: %w", secMeta, ErrBadSnapshot)
	}
	meta := make([]byte, e.len)
	if _, err := f.ReadAt(meta, int64(e.off)); err != nil {
		return "", fmt.Errorf("phocus: read snapshot meta: %w", err)
	}
	if crc32.Checksum(meta, snapCRC) != e.crc {
		return "", fmt.Errorf("phocus: section %d checksum mismatch: %w", secMeta, ErrBadSnapshot)
	}
	m, err := decodeSnapMeta(meta)
	if err != nil {
		return "", err
	}
	return m.owner, nil
}

// checkNamed reports a snapshot whose embedded fingerprint got disagrees
// with the fingerprint fp it is filed under as corrupt.
func checkNamed(fp, got string) error {
	if got != fp {
		return fmt.Errorf("phocus: snapshot named %.12s… embeds fingerprint %.12s…: %w", fp, got, ErrBadSnapshot)
	}
	return nil
}

// Remove deletes the fingerprint's snapshot. A missing file is not an error
// — invalidating a snapshot that was never written (or already removed) is
// the common case after a delta lands on a cache-only Prepared.
func (s *SnapshotStore) Remove(fp string) error {
	err := os.Remove(s.Path(fp))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// Quarantine moves the fingerprint's snapshot aside to <name>.snap.corrupt.
// Missing files are not an error (a concurrent loader may have quarantined
// first).
func (s *SnapshotStore) Quarantine(fp string) error {
	path := s.Path(fp)
	err := os.Rename(path, path+".corrupt")
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// WarmStats reports what WarmFill recovered from the directory.
type WarmStats struct {
	// Loaded counts snapshots decoded and inserted into the cache.
	Loaded int
	// Corrupt counts snapshots that failed verification and were quarantined.
	Corrupt int
	// Unreadable lists, in scan order, the snapshots that failed to read
	// for another reason. They stay in place: the fault may pass.
	Unreadable []WarmFailure
	// TempSwept counts orphaned .tmp files (a crash between temp-write and
	// rename) deleted during the scan.
	TempSwept int
	// Bytes sums the file sizes of the loaded snapshots.
	Bytes int64
}

// WarmFailure is one snapshot WarmFill could not read, and why.
type WarmFailure struct {
	Fingerprint string
	Err         error
}

// snapFault is what a failed snapshot read means (classifySnapErr).
type snapFault int

const (
	snapMissing    snapFault = iota // no file under the name: nothing to report
	snapCorrupt                     // failed verification: quarantine the file
	snapUnreadable                  // I/O, permissions, no regular file: may pass, leave the file
)

// classifySnapErr sorts a non-nil error of Load or Owner. Only
// ErrBadSnapshot is corruption.
func classifySnapErr(err error) snapFault {
	switch {
	case errors.Is(err, ErrBadSnapshot):
		return snapCorrupt
	case errors.Is(err, fs.ErrNotExist):
		return snapMissing
	}
	return snapUnreadable
}

// WarmFill scans the directory and loads every *.snap into the cache under
// its fingerprint, oldest first so the LRU keeps the newest when the cache's
// bounds bite. Corrupt files are quarantined and counted, never fatal;
// files unreadable for another reason are left in place and listed in
// WarmStats.Unreadable; orphaned temp files from interrupted Saves are
// swept. The callbacks (both optional) observe each outcome for
// metrics/logging.
func (s *SnapshotStore) WarmFill(cache *PreparedCache, onLoad func(fp string, p *Prepared, d time.Duration), onCorrupt func(fp string, err error)) (WarmStats, error) {
	var stats WarmStats
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return stats, fmt.Errorf("phocus: scan snapshot dir: %w", err)
	}
	type cand struct {
		fp  string
		mod time.Time
	}
	var cands []cand
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			// A crash between temp-write and rename orphans the temp file;
			// it was never installed, so it is garbage to collect.
			if os.Remove(filepath.Join(s.dir, name)) == nil {
				stats.TempSwept++
			}
			continue
		}
		fp, ok := strings.CutSuffix(name, ".snap")
		if !ok || !ValidFingerprint(fp) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		cands = append(cands, cand{fp: fp, mod: info.ModTime()})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].mod.Before(cands[b].mod) })
	for _, c := range cands {
		t0 := time.Now()
		p, err := s.Load(c.fp)
		if err != nil {
			switch classifySnapErr(err) {
			case snapCorrupt:
				stats.Corrupt++
				s.Quarantine(c.fp)
				if onCorrupt != nil {
					onCorrupt(c.fp, err)
				}
			case snapUnreadable:
				stats.Unreadable = append(stats.Unreadable, WarmFailure{Fingerprint: c.fp, Err: err})
			}
			continue
		}
		cache.Put(c.fp, p)
		stats.Loaded++
		stats.Bytes += p.SizeBytes()
		if onLoad != nil {
			onLoad(c.fp, p, time.Since(t0))
		}
	}
	return stats, nil
}

// ValidFingerprint reports whether fp is a lowercase sha256 hex digest, the
// form every Prepared fingerprint takes. The snapshot store names its files
// this way and ignores anything else in its directory.
func ValidFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// readAligned reads the whole file into a buffer whose base address is
// 8-byte aligned (backed by a []uint64), which is what lets DecodeSnapshot
// reinterpret slab sections in place instead of copying them.
func readAligned(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, nil
	}
	if size > 1<<40 {
		return nil, fmt.Errorf("phocus: snapshot %s is %d bytes: %w", path, size, ErrBadSnapshot)
	}
	words := make([]uint64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("phocus: read snapshot: %w", err)
	}
	return buf, nil
}

// LoadSnapshot reads and decodes one snapshot file into a Prepared. The
// returned value's PrepTime is the load duration (its KernelBuildTime is
// zero — nothing was compiled).
func LoadSnapshot(path string) (*Prepared, error) {
	t0 := time.Now()
	buf, err := readAligned(path)
	if err != nil {
		return nil, err
	}
	p, err := DecodeSnapshot(buf)
	if err != nil {
		return nil, err
	}
	p.PrepTime = time.Since(t0)
	return p, nil
}
