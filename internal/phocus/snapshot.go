// Persistent prepared-instance snapshots. A snapshot is the on-disk form of
// a *Prepared: the flat CSR kernel slabs plus the finalized-instance
// metadata needed to reconstruct it, laid out so loading is a handful of
// checksums and slice-header casts instead of re-running Finalize's
// similarity work, τ-sparsification and CompileKernel. The kernels are the
// only similarity stored: decode points every subset's Sim at a view of its
// kernel, as Prepare does. The kernels' slot weights are not stored either:
// decode derives them from META's subset weights and the relevance section,
// so a snapshot cannot carry a W·R that disagrees with its relevance. See
// DESIGN.md §9 for the wire format.
//
// Layout (all integers little-endian):
//
//	offset 0   magic "PHSNAP1\x00"                      8 bytes
//	offset 8   version u32 (currently 4)                 4 bytes
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
	snapVersion     = 4
	snapHeaderFixed = 48 // magic + version + section count + raw fingerprint
	snapTableEntry  = 24 // id + crc + offset + length
	snapMaxSections = 64
)

// Section identifiers. The numeric values are part of the wire format.
// Retired identifiers, which decode rejects as unknown: 7 and 12 held
// version 1's per-entry W·R slabs of the base and sparse kernels; 3/4 and
// 8/9 held version 2's copies of the base and sparse similarities as CSR
// neighbour lists, which the kernels already hold.
const (
	// 8-byte-aligned slabs.
	secCost       uint32 = 1 // f64[numPhotos]
	secRelevance  uint32 = 2 // f64, all subsets concatenated
	secKBRowStart uint32 = 5 // base kernel slabs …
	secKBNbrSim   uint32 = 6
	secKSRowStart uint32 = 10 // sparse kernel twins, present when τ > 0
	secKSNbrSim   uint32 = 11
	// 4-byte-aligned slabs.
	secRetained   uint32 = 32 // i32[numRetained]
	secMembers    uint32 = 33 // i32, all subsets concatenated
	secKBRowLen   uint32 = 34
	secKBNbrIdx   uint32 = 35
	secKBOccStart uint32 = 36
	secKBOccRow   uint32 = 37
	secKSRowLen   uint32 = 38
	secKSNbrIdx   uint32 = 39
	secKSOccStart uint32 = 40
	secKSOccRow   uint32 = 41
	secRemoved    uint32 = 42 // i32, ascending husked photo IDs (delta'd Prepared only)
	// Variable-length, always last.
	secMeta uint32 = 63
)

// secAlign returns the required alignment of a section's offset and length,
// or 0 for identifiers this version does not know (which decode rejects).
func secAlign(id uint32) int {
	switch {
	case id == secCost || id == secRelevance ||
		id == secKBRowStart || id == secKBNbrSim || id == secKSRowStart || id == secKSNbrSim:
		return 8
	case id >= secRetained && id <= secRemoved:
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

func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	if snapZeroCopy {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
	}
	b := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func i64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if snapZeroCopy {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
	}
	b := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if snapZeroCopy {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
	}
	b := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

func photoBytes(s []par.PhotoID) []byte {
	if len(s) == 0 {
		return nil
	}
	if snapZeroCopy {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
	}
	b := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// aligned8/aligned4 report whether the byte slice starts on the required
// boundary (the loader's []uint64 backing guarantees 8; foreign buffers —
// fuzz inputs, subslices — may not, and then the copying fallback runs).
func aligned8(b []byte) bool { return uintptr(unsafe.Pointer(&b[0]))%8 == 0 }
func aligned4(b []byte) bool { return uintptr(unsafe.Pointer(&b[0]))%4 == 0 }

func f64View(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if snapZeroCopy && aligned8(b) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func i64View(b []byte) []int64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if snapZeroCopy && aligned8(b) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func i32View(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if snapZeroCopy && aligned4(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func photoView(b []byte) []par.PhotoID {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if snapZeroCopy && aligned4(b) {
		return unsafe.Slice((*par.PhotoID)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]par.PhotoID, n)
	for i := range out {
		out[i] = par.PhotoID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// ---- encoding ------------------------------------------------------------

type snapSection struct {
	id   uint32
	data []byte
}

// snapMeta is the decoded META section.
type snapMeta struct {
	numPhotos   int
	numRetained int
	hasSparse   bool
	useLSH      bool
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
	flags := byte(0)
	if p.sparse != nil {
		flags |= 1
	}
	if p.opts.UseLSH {
		flags |= 2
	}
	if removedCount(p.removed) > 0 {
		flags |= 4
	}
	u32(uint32(flags))
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
	if flags > 7 {
		return nil, fmt.Errorf("phocus: meta flags %#x unknown: %w", flags, ErrBadSnapshot)
	}
	m.hasSparse = flags&1 != 0
	m.useLSH = flags&2 != 0
	m.hasRemoved = flags&4 != 0
	if m.hasSparse != (m.tau > 0) {
		return nil, fmt.Errorf("phocus: meta sparse flag disagrees with tau %g: %w", m.tau, ErrBadSnapshot)
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
// and a computable fingerprint. It holds the Prepared's read lock for the
// whole encode, so the bytes are a consistent cut even while ApplyDelta
// traffic is waiting; a delta'd Prepared whose kernels carry an active
// mutation overlay is serialized through freshly compiled canonical twins
// (Slabs refuses overlays), leaving p itself untouched.
func EncodeSnapshot(p *Prepared) ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	fp, err := p.fingerprintLocked()
	if err != nil {
		return nil, fmt.Errorf("phocus: snapshot fingerprint: %w", err)
	}
	rawFP, err := hex.DecodeString(fp)
	if err != nil || len(rawFP) != 32 {
		return nil, fmt.Errorf("phocus: fingerprint %q is not a sha256 hex digest", fp)
	}
	base := p.base

	kernBase := base.Kernel()
	if !kernBase.Canonical() {
		kernBase = par.CompileKernel(base)
	}
	var kernSolve *par.Kernel
	if p.solveTmpl != nil {
		kernSolve = p.solveTmpl.Kernel()
		if !kernSolve.Canonical() {
			kernSolve = par.CompileKernel(p.solveTmpl)
		}
	}

	var members []par.PhotoID
	var relevance []float64
	for qi := range base.Subsets {
		members = append(members, base.Subsets[qi].Members...)
		relevance = append(relevance, base.Subsets[qi].Relevance...)
	}
	kb := kernBase.Slabs()

	secs8 := []snapSection{
		{secCost, f64Bytes(base.Cost)},
		{secRelevance, f64Bytes(relevance)},
		{secKBRowStart, i64Bytes(kb.RowStart)},
		{secKBNbrSim, f64Bytes(kb.NbrSim)},
	}
	secs4 := []snapSection{
		{secRetained, photoBytes(base.Retained)},
		{secMembers, photoBytes(members)},
		{secKBRowLen, i32Bytes(kb.RowLen)},
		{secKBNbrIdx, i32Bytes(kb.NbrIdx)},
		{secKBOccStart, i32Bytes(kb.OccStart)},
		{secKBOccRow, i32Bytes(kb.OccRow)},
	}
	if removedCount(p.removed) > 0 {
		husks := make([]par.PhotoID, 0, removedCount(p.removed))
		for id, r := range p.removed {
			if r {
				husks = append(husks, par.PhotoID(id))
			}
		}
		secs4 = append(secs4, snapSection{secRemoved, photoBytes(husks)})
	}
	if p.sparse != nil {
		ks := kernSolve.Slabs()
		secs8 = append(secs8,
			snapSection{secKSRowStart, i64Bytes(ks.RowStart)},
			snapSection{secKSNbrSim, f64Bytes(ks.NbrSim)},
		)
		secs4 = append(secs4,
			snapSection{secKSRowLen, i32Bytes(ks.RowLen)},
			snapSection{secKSNbrIdx, i32Bytes(ks.NbrIdx)},
			snapSection{secKSOccStart, i32Bytes(ks.OccStart)},
			snapSection{secKSOccRow, i32Bytes(ks.OccRow)},
		)
	}
	secs := append(append(secs8, secs4...), snapSection{secMeta, encodeSnapMeta(p)})
	return assembleSnapshot(rawFP, secs), nil
}

// assembleSnapshot lays out the header, section table and payloads of a
// snapshot file carrying secs in order, with their checksums.
func assembleSnapshot(rawFP []byte, secs []snapSection) []byte {
	n := len(secs)
	headerLen := snapHeaderFixed + snapTableEntry*n + 8
	total := headerLen
	for _, s := range secs {
		total += len(s.data)
	}
	out := make([]byte, total)
	copy(out, snapMagic)
	binary.LittleEndian.PutUint32(out[8:], snapVersion)
	binary.LittleEndian.PutUint32(out[12:], uint32(n))
	copy(out[16:snapHeaderFixed], rawFP)
	off := headerLen
	for i, s := range secs {
		e := out[snapHeaderFixed+snapTableEntry*i:]
		binary.LittleEndian.PutUint32(e, s.id)
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(s.data, snapCRC))
		binary.LittleEndian.PutUint64(e[8:], uint64(off))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		copy(out[off:], s.data)
		off += len(s.data)
	}
	tableEnd := snapHeaderFixed + snapTableEntry*n
	hcrc := crc32.Checksum(out[:tableEnd], snapCRC)
	binary.LittleEndian.PutUint32(out[tableEnd:], hcrc)
	binary.LittleEndian.PutUint32(out[tableEnd+4:], ^hcrc)
	return out
}

// ---- decoding ------------------------------------------------------------

// DecodeSnapshot reconstructs a Prepared from snapshot bytes. On hosts whose
// memory layout matches the wire format the returned Prepared's slabs are
// views into buf, which therefore must not be modified afterwards; pass a
// buffer whose base is 8-byte aligned (readAligned/LoadSnapshot do) to get
// the zero-copy path. Every checksum, count and structural invariant is
// verified before anything is trusted: any flipped byte, truncation or
// inconsistency returns an error wrapping ErrBadSnapshot, never a panic and
// never a Prepared that could serve wrong results.
func DecodeSnapshot(buf []byte) (*Prepared, error) {
	start := time.Now()
	if len(buf) < snapHeaderFixed+snapTableEntry+8 {
		return nil, fmt.Errorf("phocus: snapshot truncated at %d bytes: %w", len(buf), ErrBadSnapshot)
	}
	if string(buf[:8]) != snapMagic {
		return nil, fmt.Errorf("phocus: bad magic %q: %w", buf[:8], ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != snapVersion {
		return nil, fmt.Errorf("phocus: snapshot version %d, this build reads %d: %w", v, snapVersion, ErrBadSnapshot)
	}
	n := int(binary.LittleEndian.Uint32(buf[12:]))
	if n < 1 || n > snapMaxSections {
		return nil, fmt.Errorf("phocus: section count %d out of range: %w", n, ErrBadSnapshot)
	}
	headerLen := snapHeaderFixed + snapTableEntry*n + 8
	if len(buf) < headerLen {
		return nil, fmt.Errorf("phocus: snapshot truncated inside header: %w", ErrBadSnapshot)
	}
	tableEnd := snapHeaderFixed + snapTableEntry*n
	hcrc := crc32.Checksum(buf[:tableEnd], snapCRC)
	if binary.LittleEndian.Uint32(buf[tableEnd:]) != hcrc ||
		binary.LittleEndian.Uint32(buf[tableEnd+4:]) != ^hcrc {
		return nil, fmt.Errorf("phocus: header checksum mismatch: %w", ErrBadSnapshot)
	}
	fp := hex.EncodeToString(buf[16:snapHeaderFixed])

	secs := make(map[uint32][]byte, n)
	off := headerLen
	for i := 0; i < n; i++ {
		e := buf[snapHeaderFixed+snapTableEntry*i:]
		id := binary.LittleEndian.Uint32(e)
		crc := binary.LittleEndian.Uint32(e[4:])
		so := binary.LittleEndian.Uint64(e[8:])
		sl := binary.LittleEndian.Uint64(e[16:])
		align := secAlign(id)
		if align == 0 {
			return nil, fmt.Errorf("phocus: unknown section id %d: %w", id, ErrBadSnapshot)
		}
		// Sections must tile the payload region exactly — the next section
		// starts where the previous one ended — so no byte escapes a CRC.
		if so != uint64(off) {
			return nil, fmt.Errorf("phocus: section %d at offset %d, want %d: %w", id, so, off, ErrBadSnapshot)
		}
		if sl > uint64(len(buf)-off) {
			return nil, fmt.Errorf("phocus: section %d overruns the file: %w", id, ErrBadSnapshot)
		}
		if off%align != 0 || int(sl)%align != 0 {
			return nil, fmt.Errorf("phocus: section %d misaligned for %d-byte elements: %w", id, align, ErrBadSnapshot)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("phocus: duplicate section id %d: %w", id, ErrBadSnapshot)
		}
		data := buf[off : off+int(sl)]
		if crc32.Checksum(data, snapCRC) != crc {
			return nil, fmt.Errorf("phocus: section %d checksum mismatch: %w", id, ErrBadSnapshot)
		}
		secs[id] = data
		off += int(sl)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("phocus: %d bytes beyond the last section: %w", len(buf)-off, ErrBadSnapshot)
	}

	sec := func(id uint32) ([]byte, error) {
		d, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("phocus: missing section %d: %w", id, ErrBadSnapshot)
		}
		delete(secs, id)
		return d, nil
	}
	metaB, err := sec(secMeta)
	if err != nil {
		return nil, err
	}
	m, err := decodeSnapMeta(metaB)
	if err != nil {
		return nil, err
	}

	totalMembers := 0
	for _, k := range m.subMembers {
		totalMembers += k
	}

	costB, err := sec(secCost)
	if err != nil {
		return nil, err
	}
	retB, err := sec(secRetained)
	if err != nil {
		return nil, err
	}
	memB, err := sec(secMembers)
	if err != nil {
		return nil, err
	}
	relB, err := sec(secRelevance)
	if err != nil {
		return nil, err
	}
	if len(costB) != 8*m.numPhotos || len(retB) != 4*m.numRetained ||
		len(memB) != 4*totalMembers || len(relB) != 8*totalMembers {
		return nil, fmt.Errorf("phocus: instance section lengths disagree with meta: %w", ErrBadSnapshot)
	}
	cost := f64View(costB)
	retained := photoView(retB)
	members := photoView(memB)
	relevance := f64View(relB)

	// Husk bitmap of a delta'd Prepared; restoring it keeps the decoded value
	// delta-capable (a husk must never be removed again or cited as a
	// neighbour, see delta.go).
	var removed []bool
	if m.hasRemoved {
		remB, err := sec(secRemoved)
		if err != nil {
			return nil, err
		}
		husks := photoView(remB)
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

	kernBase, err := decodeKernel(sec, [6]uint32{secKBRowLen, secKBRowStart, secKBNbrIdx, secKBNbrSim, secKBOccStart, secKBOccRow}, m, relevance)
	if err != nil {
		return nil, err
	}
	base := &par.Instance{Cost: cost, Retained: retained, Subsets: snapSubsets(m, members, relevance, kernBase)}
	base.Budget = base.TotalCost()
	if err := base.Finalize(); err != nil {
		return nil, fmt.Errorf("phocus: snapshot instance invalid: %v: %w", err, ErrBadSnapshot)
	}
	if err := base.AttachKernel(kernBase); err != nil {
		return nil, fmt.Errorf("phocus: %v: %w", err, ErrBadSnapshot)
	}

	var sparseSubsets []par.Subset
	var solveTmpl *par.Instance
	if m.hasSparse {
		kernSolve, err := decodeKernel(sec, [6]uint32{secKSRowLen, secKSRowStart, secKSNbrIdx, secKSNbrSim, secKSOccStart, secKSOccRow}, m, relevance)
		if err != nil {
			return nil, err
		}
		sparseSubsets = snapSubsets(m, members, relevance, kernSolve)
		// The finalized budget-free solve template RunInto stamps views from;
		// building it once here is what keeps the per-Run path allocation-free
		// after a snapshot load, exactly as after a cold Prepare.
		solveTmpl = &par.Instance{Cost: cost, Retained: retained, Budget: base.Budget, Subsets: sparseSubsets}
		if err := solveTmpl.Finalize(); err != nil {
			return nil, fmt.Errorf("phocus: snapshot sparse view invalid: %v: %w", err, ErrBadSnapshot)
		}
		if err := solveTmpl.AttachKernel(kernSolve); err != nil {
			return nil, fmt.Errorf("phocus: %v: %w", err, ErrBadSnapshot)
		}
	}
	if len(secs) != 0 {
		return nil, fmt.Errorf("phocus: %d unexpected sections: %w", len(secs), ErrBadSnapshot)
	}

	p := &Prepared{
		base:      base,
		sparse:    sparseSubsets,
		solveTmpl: solveTmpl,
		removed:   removed,
		owner:     m.owner,
		opts: PrepareOptions{
			Tau:            m.tau,
			UseLSH:         m.useLSH,
			Seed:           m.seed,
			InstanceDigest: m.digest,
		},
		OriginalPairs:   int(m.origPairs),
		SparsifiedPairs: int(m.sparsePairs),
	}
	// The single loaded region backs every slab, so it is what the Prepared
	// retains; counting it once is the snapshot path's answer to the shared-
	// slab accounting the in-memory path has to sum piecewise. The derived
	// slot weights and the true kernel's cover index, which a bounded Run
	// builds, are the only kernel arrays outside it.
	p.sizeBytes = int64(len(buf)) + 8*int64(totalMembers) + pendingCoverBytes(base.Kernel())
	if solveTmpl != nil {
		p.sizeBytes += 8 * int64(totalMembers)
	}
	// The fingerprint was fixed at encode time; recomputing it is impossible
	// anyway (the original wire bytes are gone), so seed the lazy cell.
	p.fpOnce.Do(func() { p.fp = fp })
	p.PrepTime = time.Since(start)
	return p, nil
}

// snapSubsets rebuilds one subset group (base or sparse) over the decoded
// Members/Relevance views, which both groups share exactly as Prepare's
// sparsifier shares them; each subset's Sim is a view of the group's
// kernel.
func snapSubsets(m *snapMeta, members []par.PhotoID, relevance []float64, k *par.Kernel) []par.Subset {
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
	par.SetKernelSims(subsets, k)
	return subsets
}

// decodeKernel rebuilds one compiled kernel from its six slab sections
// (rowLen, rowStart, nbrIdx, nbrSim, occStart, occRow) and validates it both
// internally (par.KernelFromSlabs) and against the instance shape META
// describes, so attaching it to the decoded instance cannot fail on a
// snapshot this decode accepted. The slot weights are derived, not read:
// row r of subset q weighs W(q)·R(q, member), the product CompileKernel
// computes, taken from META's subset weights and the relevance section
// (whose rows run in the kernel's canonical subset-major order).
func decodeKernel(sec func(uint32) ([]byte, error), ids [6]uint32, m *snapMeta, relevance []float64) (*par.Kernel, error) {
	var b [6][]byte
	for i, id := range ids {
		d, err := sec(id)
		if err != nil {
			return nil, err
		}
		b[i] = d
	}
	slabs := par.KernelSlabs{
		Photos:   m.numPhotos,
		RowLen:   i32View(b[0]),
		RowStart: i64View(b[1]),
		NbrIdx:   i32View(b[2]),
		NbrSim:   f64View(b[3]),
		SlotWR:   make([]float64, 0, len(relevance)),
		OccStart: i32View(b[4]),
		OccRow:   i32View(b[5]),
	}
	o := 0
	for qi, k := range m.subMembers {
		for _, r := range relevance[o : o+k] {
			slabs.SlotWR = append(slabs.SlotWR, m.subWeights[qi]*r)
		}
		o += k
	}
	if len(slabs.RowLen) != len(m.subMembers) {
		return nil, fmt.Errorf("phocus: kernel covers %d subsets, meta has %d: %w", len(slabs.RowLen), len(m.subMembers), ErrBadSnapshot)
	}
	for qi, k := range m.subMembers {
		if int(slabs.RowLen[qi]) != k {
			return nil, fmt.Errorf("phocus: kernel subset %d has %d rows, meta has %d members: %w", qi, slabs.RowLen[qi], k, ErrBadSnapshot)
		}
	}
	kern, err := par.KernelFromSlabs(slabs)
	if err != nil {
		return nil, fmt.Errorf("phocus: %v: %w", err, ErrBadSnapshot)
	}
	return kern, nil
}
