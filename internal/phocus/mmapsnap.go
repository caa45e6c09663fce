// mmap-backed snapshot loading. LoadSnapshotMapped maps the snapshot file
// instead of reading it into the heap, so a warm restart's load cost is the
// header + section checksums over page-cache reads rather than a full-file
// copy, and the slabs of many cached Prepared values share the page cache
// instead of each owning a heap twin.
//
// Lifetime rules (see DESIGN.md §12):
//
//   - Every slab-touching operation on a Prepared (Run/RunInto,
//     EncodeSnapshot, ApplyDelta, View) pins the mapping for its
//     duration. ReleaseMapping — called by PreparedCache when the last
//     reference to an mmap-backed entry leaves the cache — marks the mapping
//     released immediately but unmaps only once the pin count drains, so a
//     mid-solve eviction can never pull pages out from under a live scan.
//   - Once released, pinned operations fail fast with ErrSnapshotUnmapped;
//     callers (phocus-server's solve path) re-prepare and retry.
//   - The mapping is MAP_PRIVATE with write permission: delta maintenance
//     tombstones kernel rows and rewrites W·R slabs in place, which
//     copy-on-writes the touched pages without ever dirtying the file.
//   - SIGBUS cannot arise from the store's own lifecycle: DecodeSnapshot
//     bounds every section against the length fstat'd at map time, and
//     SnapshotStore replaces snapshots via temp+rename (a new inode) and
//     removes them via unlink, so a mapped inode is never truncated in
//     place. A file truncated before mapping fails decode cleanly.
package phocus

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// ErrSnapshotUnmapped is returned by operations on an mmap-backed Prepared
// whose mapping has been released (its last cache reference was evicted).
// The value is stale by definition; callers should drop it and re-prepare.
var ErrSnapshotUnmapped = errors.New("phocus: snapshot mapping released")

// snapMapping tracks one mmap'd snapshot region and the pins that keep it
// alive across a release request.
type snapMapping struct {
	mu      sync.Mutex
	buf     []byte
	path    string
	pins    int
	evicted bool // release requested; unmap when pins drain
	mapped  bool
}

func (m *snapMapping) pin() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.mapped || m.evicted {
		return ErrSnapshotUnmapped
	}
	m.pins++
	return nil
}

func (m *snapMapping) unpin() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pins--
	if m.evicted && m.pins == 0 && m.mapped {
		m.unmapLocked()
	}
}

func (m *snapMapping) release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evicted = true
	if m.pins == 0 && m.mapped {
		m.unmapLocked()
	}
}

func (m *snapMapping) unmapLocked() {
	// A munmap failure leaves the pages mapped but unreferenced; there is no
	// recovery beyond not touching them again, which the flags guarantee.
	_ = munmapBuf(m.buf)
	m.buf = nil
	m.mapped = false
	runtime.SetFinalizer(m, nil)
}

// pin marks the start of a slab-touching operation. Heap-backed Prepared
// values (mm == nil) always succeed.
func (p *Prepared) pin() error {
	if p.mm == nil {
		return nil
	}
	return p.mm.pin()
}

func (p *Prepared) unpin() {
	if p.mm != nil {
		p.mm.unpin()
	}
}

// ReleaseMapping releases the snapshot mapping backing an mmap-loaded
// Prepared: new slab accesses fail with ErrSnapshotUnmapped immediately, and
// the pages are unmapped as soon as the last in-flight pinned operation
// finishes. PreparedCache calls it when the last reference to an mmap-backed
// entry leaves the cache; on heap-backed values it is a no-op.
func (p *Prepared) ReleaseMapping() {
	if p.mm != nil {
		p.mm.release()
	}
}

// MappedBytes reports how many of SizeBytes' bytes are backed by the mmap'd
// snapshot file (0 for heap-backed values and once released). Those bytes
// live in the page cache, not the Go heap, so PreparedCache charges
// SizeBytes − MappedBytes against its byte bound.
func (p *Prepared) MappedBytes() int64 {
	if p.mm == nil {
		return 0
	}
	p.mm.mu.Lock()
	defer p.mm.mu.Unlock()
	if !p.mm.mapped {
		return 0
	}
	return int64(len(p.mm.buf))
}

// LoadSnapshotMapped is LoadSnapshot through a private file mapping instead
// of a heap read. On platforms without mmap support, or when the mapping
// itself fails, it falls back to the heap path — the returned Prepared
// behaves identically either way (the fallback just reports MappedBytes 0
// and never returns ErrSnapshotUnmapped).
func LoadSnapshotMapped(path string) (*Prepared, error) {
	if !mmapSupported {
		return LoadSnapshot(path)
	}
	t0 := time.Now()
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
		return nil, fmt.Errorf("phocus: snapshot %s is empty: %w", path, ErrBadSnapshot)
	}
	if size > 1<<40 {
		return nil, fmt.Errorf("phocus: snapshot %s is %d bytes: %w", path, size, ErrBadSnapshot)
	}
	buf, err := mmapFile(f, size)
	if err != nil {
		return LoadSnapshot(path)
	}
	p, err := DecodeSnapshot(buf)
	if err != nil {
		_ = munmapBuf(buf)
		return nil, err
	}
	mm := &snapMapping{buf: buf, path: path, mapped: true}
	p.mm = mm
	// Backstop: a Prepared dropped without ever entering the reference-
	// tracked cache (error paths, tests) must not leak its mapping for the
	// life of the process.
	runtime.SetFinalizer(mm, (*snapMapping).release)
	p.PrepTime = time.Since(t0)
	return p, nil
}
