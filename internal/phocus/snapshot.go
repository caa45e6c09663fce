// Persistent prepared-instance snapshots. A snapshot is the on-disk form of
// a *Prepared: the true kernel's flat CSR slabs plus the finalized-instance
// metadata needed to reconstruct it, laid out so loading is a handful of
// checksums and slice-header casts instead of re-running Finalize's
// similarity work and CompileKernel. The true kernel is the only similarity
// stored: decode points every subset's Sim at a view of it, as Prepare
// does, and derives the τ-kernel from it with par.Kernel.Threshold, as
// Prepare's exact path does, so a snapshot cannot carry a τ-kernel that
// disagrees with its true kernel. An LSH-prepared instance, whose τ-kernel
// is no threshold of its true kernel, is not snapshotted. Of the kernel
// only the entry slabs are stored: its layout — row lengths, slot weights
// and occurrence index — follows from the members, relevance and META's
// subset weights, and decode rebuilds it with the function CompileKernel
// uses (par.KernelFromEntries), so a snapshot cannot carry a layout that
// disagrees with its subsets. See DESIGN.md §9 for the wire format.
//
// Layout (all integers little-endian):
//
//	offset 0   magic "PHSNAP1\x00"                      8 bytes
//	offset 8   version u32 (currently 6)                 4 bytes
//	offset 12  section count N u32                       4 bytes
//	offset 16  content fingerprint (raw sha256)         32 bytes
//	offset 48  section table: N × {id u32, crc32c u32,
//	           offset u64, length u64}                24N bytes
//	...        header crc32c u32 over [0, 48+24N),
//	           then its bitwise complement u32           8 bytes
//	...        section payloads, contiguous
//
// Sections are emitted 8-byte-aligned slabs first (f64/i64), then
// 4-byte slabs (i32), then the variable-length META section last. Because
// the header block is 8-aligned (48 + 24N + 8 ≡ 0 mod 8) and every slab's
// length is a multiple of its alignment, consecutive sections tile the file
// with zero padding: every byte after the header belongs to exactly one
// CRC-checked section, and the header block is covered by its own duplicated
// CRC — so a single flipped bit anywhere in the file fails verification.
//
// Slab sections are written and read zero-copy (a byte view of the live
// arrays, a typed view of the loaded region) when the host is little-endian;
// other hosts transparently fall back to element-wise encoding, producing
// the identical file format.
package phocus

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
	"unsafe"

	"phocus/internal/par"
)

// ErrBadSnapshot tags every snapshot decoding failure — truncation, checksum
// mismatch, or structurally invalid content. Callers match it with errors.Is
// to distinguish "corrupt file, quarantine and fall back to cold Prepare"
// from environmental errors (missing file, permission).
var ErrBadSnapshot = errors.New("bad snapshot")

const (
	snapMagic       = "PHSNAP1\x00"
	snapVersion     = 6
	snapHeaderFixed = 48 // magic + version + section count + raw fingerprint
	snapTableEntry  = 24 // id + crc + offset + length
	snapMaxSections = 64
)

// Section identifiers. The numeric values are part of the wire format.
// Retired identifiers, which decode rejects as unknown: 7 and 12 held
// version 1's per-entry W·R slabs of the base and sparse kernels; 3/4 and
// 8/9 held version 2's copies of the base and sparse similarities as CSR
// neighbour lists, which the kernels already hold; 10/11 and 38–41 held the
// sparse kernel's slabs up to version 4, which decode now derives from the
// base kernel's; 34, 36 and 37 held the base kernel's row lengths and
// occurrence index up to version 5, which decode now builds from the
// members.
const (
	// 8-byte-aligned slabs.
	secCost       uint32 = 1 // f64[numPhotos]
	secRelevance  uint32 = 2 // f64, all subsets concatenated
	secKBRowStart uint32 = 5 // base kernel slabs …
	secKBNbrSim   uint32 = 6
	// 4-byte-aligned slabs.
	secRetained uint32 = 32 // i32[numRetained]
	secMembers  uint32 = 33 // i32, all subsets concatenated
	secKBNbrIdx uint32 = 35
	secRemoved  uint32 = 42 // i32, ascending husked photo IDs (delta'd Prepared only)
	// Variable-length, always last.
	secMeta uint32 = 63
)

// secAlign returns the required alignment of a section's offset and length,
// or 0 for identifiers this version does not know (which decode rejects).
func secAlign(id uint32) int {
	switch {
	case id == secCost || id == secRelevance || id == secKBRowStart || id == secKBNbrSim:
		return 8
	case id == secRetained || id == secMembers || id == secKBNbrIdx || id == secRemoved:
		return 4
	case id == secMeta:
		return 1
	}
	return 0
}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// snapZeroCopy reports whether the host's in-memory layout matches the wire
// layout exactly — little-endian scalars — so slabs can be reinterpreted in
// place. On any other host the element-wise fallback produces the same file
// bytes.
var snapZeroCopy = func() bool {
	x := uint32(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ---- slab <-> byte conversions -------------------------------------------

// slab is the element type of a snapshot slab section.
type slab interface {
	float64 | int64 | int32 | par.PhotoID
}

// slabBytes returns s's wire bytes: a byte view of s itself when the host
// is little-endian, an element-wise little-endian copy otherwise.
func slabBytes[T slab](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	if snapZeroCopy {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), int(unsafe.Sizeof(s[0]))*len(s))
	}
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, s)
	return b.Bytes()
}

// slabView returns the slab whose wire bytes are b: a typed view of b in
// place when the host is little-endian and b starts on the element's
// boundary (the loader's []uint64 backing guarantees it; foreign buffers —
// fuzz inputs, subslices — may not), an element-wise copy otherwise.
func slabView[T slab](b []byte) []T {
	size := int(unsafe.Sizeof(*new(T)))
	n := len(b) / size
	if n == 0 {
		return nil
	}
	if snapZeroCopy && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	// b holds at least n elements, so the read cannot fail.
	_ = binary.Read(bytes.NewReader(b), binary.LittleEndian, out)
	return out
}

// ---- encoding ------------------------------------------------------------

// snapSection is one section of a snapshot: its payload is its chunks in
// order, each a byte view of a live slab where the host allows it.
type snapSection struct {
	id     uint32
	chunks [][]byte
}

// section returns the section id whose payload is the wire bytes of the
// slabs in order.
func section[T slab](id uint32, slabs ...[]T) snapSection {
	s := snapSection{id: id, chunks: make([][]byte, 0, len(slabs))}
	for _, sl := range slabs {
		if len(sl) > 0 {
			s.chunks = append(s.chunks, slabBytes(sl))
		}
	}
	return s
}

// snapMeta is the decoded META section.
type snapMeta struct {
	numPhotos   int
	numRetained int
	hasRemoved  bool
	tau         float64
	seed        int64
	origPairs   int64
	sparsePairs int64
	digest      string
	owner       string
	subNames    []string
	subWeights  []float64
	subMembers  []int
}

func encodeSnapMeta(p *Prepared) []byte {
	var b bytes.Buffer
	var tmp [8]byte
	u32 := func(v uint32) { binary.LittleEndian.PutUint32(tmp[:4], v); b.Write(tmp[:4]) }
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(tmp[:], v); b.Write(tmp[:]) }
	str := func(s string) {
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(s)))
		b.Write(tmp[:2])
		b.WriteString(s)
	}
	u32(uint32(p.base.NumPhotos()))
	u32(uint32(len(p.base.Subsets)))
	u32(uint32(len(p.base.Retained)))
	flags := uint32(0)
	if removedCount(p.removed) > 0 {
		flags |= 1
	}
	u32(flags)
	u64(math.Float64bits(p.opts.Tau))
	u64(uint64(p.opts.Seed))
	u64(uint64(int64(p.OriginalPairs)))
	u64(uint64(int64(p.SparsifiedPairs)))
	str(p.opts.InstanceDigest)
	str(p.owner)
	for qi := range p.base.Subsets {
		q := &p.base.Subsets[qi]
		str(q.Name)
		u64(math.Float64bits(q.Weight))
		u32(uint32(len(q.Members)))
	}
	return b.Bytes()
}

// snapReader is a bounds-checked cursor over the META section; the first
// overrun latches an error and every later read returns zero values.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) need(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = fmt.Errorf("phocus: meta truncated at byte %d: %w", r.off, ErrBadSnapshot)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *snapReader) u16() uint16 {
	if s := r.need(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (r *snapReader) u32() uint32 {
	if s := r.need(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if s := r.need(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (r *snapReader) str() string {
	n := int(r.u16())
	if s := r.need(n); s != nil {
		return string(s)
	}
	return ""
}

// snapMaxPhotos / snapMaxSubsets bound decoded counts before any
// cross-validation, so a corrupt count cannot drive a huge allocation.
const (
	snapMaxPhotos  = 1 << 28
	snapMaxSubsets = 1 << 24
)

func decodeSnapMeta(b []byte) (*snapMeta, error) {
	r := &snapReader{b: b}
	m := &snapMeta{}
	m.numPhotos = int(r.u32())
	numSubsets := int(r.u32())
	m.numRetained = int(r.u32())
	flags := r.u32()
	m.tau = math.Float64frombits(r.u64())
	m.seed = int64(r.u64())
	m.origPairs = int64(r.u64())
	m.sparsePairs = int64(r.u64())
	m.digest = r.str()
	m.owner = r.str()
	if r.err != nil {
		return nil, r.err
	}
	if m.numPhotos < 1 || m.numPhotos > snapMaxPhotos {
		return nil, fmt.Errorf("phocus: meta photo count %d out of range: %w", m.numPhotos, ErrBadSnapshot)
	}
	if numSubsets < 1 || numSubsets > snapMaxSubsets {
		return nil, fmt.Errorf("phocus: meta subset count %d out of range: %w", numSubsets, ErrBadSnapshot)
	}
	if m.numRetained < 0 || m.numRetained > m.numPhotos {
		return nil, fmt.Errorf("phocus: meta retained count %d out of range: %w", m.numRetained, ErrBadSnapshot)
	}
	if flags > 1 {
		return nil, fmt.Errorf("phocus: meta flags %#x unknown: %w", flags, ErrBadSnapshot)
	}
	m.hasRemoved = flags&1 != 0
	// Decode thresholds the true kernel at tau, which keeps every self
	// entry only within [0, 1].
	if !(m.tau >= 0 && m.tau <= 1) {
		return nil, fmt.Errorf("phocus: meta tau %g out of [0,1]: %w", m.tau, ErrBadSnapshot)
	}
	// Each subset record is ≥ 14 bytes; the remaining META length bounds the
	// claimed subset count before the slices below are allocated.
	if rem := len(b) - r.off; numSubsets > rem/14 {
		return nil, fmt.Errorf("phocus: meta claims %d subsets in %d bytes: %w", numSubsets, rem, ErrBadSnapshot)
	}
	m.subNames = make([]string, numSubsets)
	m.subWeights = make([]float64, numSubsets)
	m.subMembers = make([]int, numSubsets)
	for qi := 0; qi < numSubsets; qi++ {
		m.subNames[qi] = r.str()
		m.subWeights[qi] = math.Float64frombits(r.u64())
		k := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if k < 1 || k > m.numPhotos {
			return nil, fmt.Errorf("phocus: meta subset %d member count %d out of range: %w", qi, k, ErrBadSnapshot)
		}
		m.subMembers[qi] = k
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("phocus: meta has %d trailing bytes: %w", len(b)-r.off, ErrBadSnapshot)
	}
	return m, nil
}

// EncodeSnapshot serializes the Prepared into the snapshot wire format. The
// Prepared must carry a compiled kernel (every engine-built Prepared does)
// and a computable fingerprint, and must not be LSH-prepared: decode
// derives the τ-kernel by thresholding the true kernel, which an LSH
// τ-kernel is not. It is writeSnapshot into a buffer of the file's size.
func EncodeSnapshot(p *Prepared) ([]byte, error) {
	var buf bytes.Buffer
	if _, _, err := writeSnapshot(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeSnapshot writes p's snapshot file to w, the header block first and
// then each section's slabs straight from p's arrays, and returns p's
// fingerprint and the file's size. It holds p's read lock for the whole
// write, so the bytes are a consistent cut even while ApplyDelta traffic
// is waiting; a delta'd Prepared whose true kernel carries an active
// mutation overlay is serialized through a freshly compiled canonical twin
// (Slabs refuses overlays), leaving p itself untouched. A *bytes.Buffer w
// grows once, to the file's size.
func writeSnapshot(w io.Writer, p *Prepared) (string, int64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.opts.UseLSH {
		return "", 0, errors.New("phocus: snapshot of an LSH-prepared instance: decode could not rebuild its τ-kernel")
	}
	fp, err := p.fingerprintLocked()
	if err != nil {
		return "", 0, fmt.Errorf("phocus: snapshot fingerprint: %w", err)
	}
	rawFP, err := hex.DecodeString(fp)
	if err != nil || len(rawFP) != 32 {
		return "", 0, fmt.Errorf("phocus: fingerprint %q is not a sha256 hex digest", fp)
	}
	base := p.base

	members := make([][]par.PhotoID, len(base.Subsets))
	relevance := make([][]float64, len(base.Subsets))
	for qi := range base.Subsets {
		members[qi], relevance[qi] = base.Subsets[qi].Members, base.Subsets[qi].Relevance
	}
	kb := canonicalKernel(base).Slabs()

	secs := []snapSection{
		section(secCost, base.Cost),
		section(secRelevance, relevance...),
		section(secKBRowStart, kb.RowStart),
		section(secKBNbrSim, kb.NbrSim),
		section(secRetained, base.Retained),
		section(secMembers, members...),
		section(secKBNbrIdx, kb.NbrIdx),
	}
	if removedCount(p.removed) > 0 {
		husks := make([]par.PhotoID, 0, removedCount(p.removed))
		for id, r := range p.removed {
			if r {
				husks = append(husks, par.PhotoID(id))
			}
		}
		secs = append(secs, section(secRemoved, husks))
	}
	secs = append(secs, snapSection{secMeta, [][]byte{encodeSnapMeta(p)}})
	n, err := writeSections(w, rawFP, secs)
	return fp, n, err
}

// canonicalKernel returns tmpl's kernel, or, while a delta overlay is
// active on it, a canonical twin compiled through tmpl's kernel views.
func canonicalKernel(tmpl *par.Instance) *par.Kernel {
	if k := tmpl.Kernel(); k.Canonical() {
		return k
	}
	return par.CompileKernel(tmpl)
}

// writeSections writes a snapshot file carrying secs in order to w: the
// header block with the section table and checksums, then the payloads.
// It returns the file's size.
func writeSections(w io.Writer, rawFP []byte, secs []snapSection) (int64, error) {
	n := len(secs)
	headerLen := snapHeaderFixed + snapTableEntry*n + 8
	head := make([]byte, headerLen)
	copy(head, snapMagic)
	binary.LittleEndian.PutUint32(head[8:], snapVersion)
	binary.LittleEndian.PutUint32(head[12:], uint32(n))
	copy(head[16:snapHeaderFixed], rawFP)
	off := headerLen
	for i, s := range secs {
		size, crc := 0, uint32(0)
		for _, c := range s.chunks {
			size += len(c)
			crc = crc32.Update(crc, snapCRC, c)
		}
		e := head[snapHeaderFixed+snapTableEntry*i:]
		binary.LittleEndian.PutUint32(e, s.id)
		binary.LittleEndian.PutUint32(e[4:], crc)
		binary.LittleEndian.PutUint64(e[8:], uint64(off))
		binary.LittleEndian.PutUint64(e[16:], uint64(size))
		off += size
	}
	tableEnd := snapHeaderFixed + snapTableEntry*n
	hcrc := crc32.Checksum(head[:tableEnd], snapCRC)
	binary.LittleEndian.PutUint32(head[tableEnd:], hcrc)
	binary.LittleEndian.PutUint32(head[tableEnd+4:], ^hcrc)
	if b, ok := w.(*bytes.Buffer); ok {
		b.Grow(off)
	}
	if _, err := w.Write(head); err != nil {
		return 0, fmt.Errorf("phocus: write snapshot: %w", err)
	}
	for _, s := range secs {
		for _, c := range s.chunks {
			if _, err := w.Write(c); err != nil {
				return 0, fmt.Errorf("phocus: write snapshot: %w", err)
			}
		}
	}
	return int64(off), nil
}

// ---- decoding ------------------------------------------------------------

// snapHeaderMax is the longest header block: the fixed fields, a full
// section table and the duplicated header CRC.
const snapHeaderMax = snapHeaderFixed + snapTableEntry*snapMaxSections + 8

// snapEntry is one verified section table entry.
type snapEntry struct {
	crc      uint32
	off, len int
}

// parseSnapHeader verifies the header block at the start of head — magic,
// version, section count and the duplicated header CRC — and the section
// table's layout against a file of size bytes: known identifiers, no
// duplicates, aligned sections that tile the payload exactly, so no byte
// escapes a CRC. It returns the embedded fingerprint and the table by
// section id; each section's own checksum is left to whoever reads it.
func parseSnapHeader(head []byte, size int) (string, map[uint32]snapEntry, error) {
	if len(head) < snapHeaderFixed+snapTableEntry+8 {
		return "", nil, fmt.Errorf("phocus: snapshot truncated at %d bytes: %w", len(head), ErrBadSnapshot)
	}
	if string(head[:8]) != snapMagic {
		return "", nil, fmt.Errorf("phocus: bad magic %q: %w", head[:8], ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != snapVersion {
		return "", nil, fmt.Errorf("phocus: snapshot version %d, this build reads %d: %w", v, snapVersion, ErrBadSnapshot)
	}
	n := int(binary.LittleEndian.Uint32(head[12:]))
	if n < 1 || n > snapMaxSections {
		return "", nil, fmt.Errorf("phocus: section count %d out of range: %w", n, ErrBadSnapshot)
	}
	headerLen := snapHeaderFixed + snapTableEntry*n + 8
	if len(head) < headerLen {
		return "", nil, fmt.Errorf("phocus: snapshot truncated inside header: %w", ErrBadSnapshot)
	}
	tableEnd := snapHeaderFixed + snapTableEntry*n
	hcrc := crc32.Checksum(head[:tableEnd], snapCRC)
	if binary.LittleEndian.Uint32(head[tableEnd:]) != hcrc ||
		binary.LittleEndian.Uint32(head[tableEnd+4:]) != ^hcrc {
		return "", nil, fmt.Errorf("phocus: header checksum mismatch: %w", ErrBadSnapshot)
	}

	table := make(map[uint32]snapEntry, n)
	off := headerLen
	for i := 0; i < n; i++ {
		e := head[snapHeaderFixed+snapTableEntry*i:]
		id := binary.LittleEndian.Uint32(e)
		so := binary.LittleEndian.Uint64(e[8:])
		sl := binary.LittleEndian.Uint64(e[16:])
		align := secAlign(id)
		if align == 0 {
			return "", nil, fmt.Errorf("phocus: unknown section id %d: %w", id, ErrBadSnapshot)
		}
		// Sections must tile the payload region exactly — the next section
		// starts where the previous one ended — so no byte escapes a CRC.
		if so != uint64(off) {
			return "", nil, fmt.Errorf("phocus: section %d at offset %d, want %d: %w", id, so, off, ErrBadSnapshot)
		}
		if sl > uint64(size-off) {
			return "", nil, fmt.Errorf("phocus: section %d overruns the file: %w", id, ErrBadSnapshot)
		}
		if off%align != 0 || int(sl)%align != 0 {
			return "", nil, fmt.Errorf("phocus: section %d misaligned for %d-byte elements: %w", id, align, ErrBadSnapshot)
		}
		if _, dup := table[id]; dup {
			return "", nil, fmt.Errorf("phocus: duplicate section id %d: %w", id, ErrBadSnapshot)
		}
		table[id] = snapEntry{crc: binary.LittleEndian.Uint32(e[4:]), off: off, len: int(sl)}
		off += int(sl)
	}
	if off != size {
		return "", nil, fmt.Errorf("phocus: %d bytes beyond the last section: %w", size-off, ErrBadSnapshot)
	}
	return hex.EncodeToString(head[16:snapHeaderFixed]), table, nil
}

// DecodeSnapshot reconstructs a Prepared from snapshot bytes. On hosts whose
// memory layout matches the wire format the returned Prepared's slabs are
// views into buf, which therefore must not be modified afterwards; pass a
// buffer whose base is 8-byte aligned (readAligned/LoadSnapshot do) to get
// the zero-copy path. The true kernel's entry slabs are such views; its
// layout is rebuilt from the decoded subsets (par.KernelFromEntries), as
// CompileKernel builds it, and its τ-kernel is thresholded from it. Every
// checksum, count and structural invariant is verified before anything is
// trusted: any flipped byte, truncation or inconsistency returns an error
// wrapping ErrBadSnapshot, never a panic and never a Prepared that could
// serve wrong results.
func DecodeSnapshot(buf []byte) (*Prepared, error) {
	start := time.Now()
	fp, table, err := parseSnapHeader(buf, len(buf))
	if err != nil {
		return nil, err
	}
	secs := make(map[uint32][]byte, len(table))
	for id, e := range table {
		data := buf[e.off : e.off+e.len]
		if crc32.Checksum(data, snapCRC) != e.crc {
			return nil, fmt.Errorf("phocus: section %d checksum mismatch: %w", id, ErrBadSnapshot)
		}
		secs[id] = data
	}

	m, err := decodeSnapMeta(secs[secMeta])
	if err != nil {
		return nil, err
	}
	// The file holds exactly the sections META calls for.
	want := []uint32{secMeta, secCost, secRetained, secMembers, secRelevance,
		secKBRowStart, secKBNbrIdx, secKBNbrSim}
	if m.hasRemoved {
		want = append(want, secRemoved)
	}
	for _, id := range want {
		if _, ok := secs[id]; !ok {
			return nil, fmt.Errorf("phocus: missing section %d: %w", id, ErrBadSnapshot)
		}
	}
	if len(secs) != len(want) {
		return nil, fmt.Errorf("phocus: %d unexpected sections: %w", len(secs)-len(want), ErrBadSnapshot)
	}

	totalMembers := 0
	for _, k := range m.subMembers {
		totalMembers += k
	}
	costB, retB, memB, relB := secs[secCost], secs[secRetained], secs[secMembers], secs[secRelevance]
	if len(costB) != 8*m.numPhotos || len(retB) != 4*m.numRetained ||
		len(memB) != 4*totalMembers || len(relB) != 8*totalMembers {
		return nil, fmt.Errorf("phocus: instance section lengths disagree with meta: %w", ErrBadSnapshot)
	}
	cost := slabView[float64](costB)
	retained := slabView[par.PhotoID](retB)
	members := slabView[par.PhotoID](memB)
	relevance := slabView[float64](relB)

	base := &par.Instance{Cost: cost, Retained: retained, Subsets: snapSubsets(m, members, relevance)}
	base.Budget = base.TotalCost()
	kernBase, err := par.KernelFromEntries(base, slabView[int64](secs[secKBRowStart]),
		slabView[int32](secs[secKBNbrIdx]), slabView[float64](secs[secKBNbrSim]))
	if err != nil {
		return nil, fmt.Errorf("phocus: %v: %w", err, ErrBadSnapshot)
	}
	par.SetKernelSims(base.Subsets, kernBase)
	if err := base.Finalize(); err != nil {
		return nil, fmt.Errorf("phocus: snapshot instance invalid: %v: %w", err, ErrBadSnapshot)
	}
	// Husk bitmap of a delta'd Prepared; restoring it keeps the decoded value
	// delta-capable (a husk must never be removed again or cited as a
	// neighbour, see delta.go). Finalize has range-checked the retained set.
	var removed []bool
	if m.hasRemoved {
		husks := slabView[par.PhotoID](secs[secRemoved])
		if len(husks) == 0 {
			return nil, fmt.Errorf("phocus: removed flag set but section empty: %w", ErrBadSnapshot)
		}
		removed = make([]bool, m.numPhotos)
		prev := par.PhotoID(-1)
		for _, id := range husks {
			if id <= prev || int(id) >= m.numPhotos {
				return nil, fmt.Errorf("phocus: removed photo %d out of order or range: %w", id, ErrBadSnapshot)
			}
			removed[id] = true
			prev = id
		}
		for _, r := range retained {
			if removed[r] {
				return nil, fmt.Errorf("phocus: retained photo %d marked removed: %w", r, ErrBadSnapshot)
			}
		}
	}

	// META's pair counts are the Prepared's at encode time, which are its
	// τ-kernel's own: zero without τ, and otherwise what thresholding the
	// true kernel counts.
	kernSolve := kernBase
	var before, after int
	if m.tau > 0 {
		kernSolve, before, after = kernBase.Threshold(m.tau)
	}
	if m.origPairs != int64(before) || m.sparsePairs != int64(after) {
		return nil, fmt.Errorf("phocus: meta pair counts %d/%d, kernel has %d/%d: %w",
			m.origPairs, m.sparsePairs, before, after, ErrBadSnapshot)
	}

	p := &Prepared{
		removed: removed,
		owner:   m.owner,
		opts: PrepareOptions{
			Tau:            m.tau,
			Seed:           m.seed,
			InstanceDigest: m.digest,
		},
		OriginalPairs:   int(m.origPairs),
		SparsifiedPairs: int(m.sparsePairs),
	}
	// The solve template reads the τ-kernel through the base's layout, built
	// once here so the per-Run path stays allocation-free after a snapshot
	// load, exactly as after a cold Prepare.
	if err := p.setKernels(base, kernBase, kernSolve); err != nil {
		return nil, fmt.Errorf("phocus: %v: %w", err, ErrBadSnapshot)
	}
	// The single loaded region backs the true kernel's entry slabs, so it is
	// what the Prepared retains of them; counting it once is the snapshot
	// path's answer to the shared-slab accounting the in-memory path has to
	// sum piecewise. The layout decode built, the true kernel's cover index,
	// which a bounded Run builds, and the τ-kernel are the only kernel
	// arrays outside it.
	entryBytes := int64(len(secs[secKBRowStart]) + len(secs[secKBNbrIdx]) + len(secs[secKBNbrSim]))
	p.sizeBytes = int64(len(buf)) + kernBase.SizeBytes() - entryBytes + pendingCoverBytes(kernBase)
	if kernSolve != kernBase {
		p.sizeBytes += kernSolve.SizeBytes()
	}
	// The fingerprint was fixed at encode time; recomputing it is impossible
	// anyway (the original wire bytes are gone), so seed the lazy cell.
	p.fpOnce.Do(func() { p.fp = fp })
	p.PrepTime = time.Since(start)
	return p, nil
}

// snapSubsets rebuilds the base subsets over the decoded Members/Relevance
// views; their Sims are set once the kernel is built.
func snapSubsets(m *snapMeta, members []par.PhotoID, relevance []float64) []par.Subset {
	subsets := make([]par.Subset, len(m.subMembers))
	o := 0
	for qi, n := range m.subMembers {
		subsets[qi] = par.Subset{
			Name:      m.subNames[qi],
			Weight:    m.subWeights[qi],
			Members:   members[o : o+n],
			Relevance: relevance[o : o+n],
		}
		o += n
	}
	return subsets
}
