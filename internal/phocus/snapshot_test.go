package phocus

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"phocus/internal/dataset"
	"phocus/internal/par"
)

// snapSimVariants mirrors the par package's similarity matrix: every subset
// of a generated instance is rewritten to a different Similarity
// implementation, so the kernels a snapshot stores — and the similarity
// views decode builds on them — are compiled through the NeighborLister
// path (sparse, identity), the dense enumeration path (dense, fn, uniform)
// and the degenerate extremes.
var snapSimVariants = map[string]func(k int, dense par.Similarity) par.Similarity{
	"dense": func(k int, dense par.Similarity) par.Similarity { return dense },
	"sparse": func(k int, dense par.Similarity) par.Similarity {
		b := par.NewSparseSimBuilder(k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if s := dense.Sim(i, j); s > 0 {
					b.Add(i, j, s)
				}
			}
		}
		return b.Build()
	},
	"fn":       func(k int, dense par.Similarity) par.Similarity { return par.FuncSim{N: k, F: dense.Sim} },
	"uniform":  func(k int, dense par.Similarity) par.Similarity { return par.UniformSim{N: k} },
	"identity": func(k int, dense par.Similarity) par.Similarity { return par.IdentitySim{N: k} },
}

// snapDataset builds a random dataset whose subsets use the named similarity
// variant.
func snapDataset(t testing.TB, seed int64, variant func(int, par.Similarity) par.Similarity) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst := par.Random(rng, par.RandomConfig{
		Photos:     30,
		Subsets:    8,
		MaxSubset:  10,
		RetainFrac: 0.1,
		SimDensity: 0.6,
	})
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		q.Sim = variant(len(q.Members), q.Sim)
	}
	return &dataset.Dataset{Instance: inst}
}

// runKey collapses a Result into the fields the differential compares; every
// comparison is bit-exact (==), not within-tolerance.
type runKey struct {
	score, cost, bound, ratio float64
	photos                    string
}

func keyOf(r *Result) runKey {
	return runKey{
		score:  r.Solution.Score,
		cost:   r.Solution.Cost,
		bound:  r.OnlineBound,
		ratio:  r.CertifiedRatio,
		photos: fmt.Sprint(r.Solution.Photos),
	}
}

// solveKernel returns p's solve kernel, nil when p was prepared without τ.
func solveKernel(p *Prepared) *par.Kernel {
	if p.solveTmpl == nil {
		return nil
	}
	return p.solveTmpl.Kernel()
}

// sameSlabs asserts two kernels are bit-identical, slab by slab.
func sameSlabs(t *testing.T, label string, want, got *par.Kernel) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: kernel presence differs: %v vs %v", label, want != nil, got != nil)
	}
	if want == nil {
		return
	}
	w, g := want.Slabs(), got.Slabs()
	if w.Photos != g.Photos {
		t.Fatalf("%s: photos %d vs %d", label, w.Photos, g.Photos)
	}
	cmp := func(name string, a, b any) {
		t.Helper()
		as, bs := fmt.Sprint(a), fmt.Sprint(b)
		if as != bs {
			t.Fatalf("%s: slab %s differs:\n  compiled: %.120s\n  loaded:   %.120s", label, name, as, bs)
		}
	}
	cmp("rowLen", w.RowLen, g.RowLen)
	cmp("rowStart", w.RowStart, g.RowStart)
	cmp("nbrIdx", w.NbrIdx, g.NbrIdx)
	cmp("occStart", w.OccStart, g.OccStart)
	cmp("occRow", w.OccRow, g.OccRow)
	bits := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: slab %s holds %d values, loaded %d", label, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: slab %s[%d] = %v loaded, %v compiled", label, name, i, b[i], a[i])
			}
		}
	}
	bits("nbrSim", w.NbrSim, g.NbrSim)
	// The loaded slot weights are derived from META's subset weights and the
	// relevance section; they must be the compiled products bit for bit.
	bits("slotWR", w.SlotWR, g.SlotWR)
}

// TestSnapshotRoundTripDifferential is the snapshot format's equivalence
// guarantee: for every similarity variant × τ mode × workers ∈ {1, 2, 8}, a
// Prepared written to the snapshot format and loaded back produces
// bit-identical kernels, base similarities bit-identical to the caller's
// source similarities, and solve results equal to the in-memory Prepared's
// in every field.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	ctx := context.Background()
	for name, variant := range snapSimVariants {
		for _, tau := range []float64{0, 0.5} {
			t.Run(fmt.Sprintf("%s/tau=%g", name, tau), func(t *testing.T) {
				ds := snapDataset(t, int64(len(name))*100+int64(tau*10), variant)
				total := ds.Instance.TotalCost()
				p, err := Prepare(ctx, ds, PrepareOptions{
					Tau:            tau,
					InstanceDigest: "digest-" + name,
				})
				if err != nil {
					t.Fatalf("Prepare: %v", err)
				}
				data, err := EncodeSnapshot(p)
				if err != nil {
					t.Fatalf("EncodeSnapshot: %v", err)
				}
				q, err := DecodeSnapshot(data)
				if err != nil {
					t.Fatalf("DecodeSnapshot: %v", err)
				}

				pfp, _ := p.Fingerprint()
				qfp, err := q.Fingerprint()
				if err != nil || qfp != pfp {
					t.Fatalf("fingerprint %q (%v), want %q", qfp, err, pfp)
				}
				sameSlabs(t, "base kernel", p.base.Kernel(), q.base.Kernel())
				sameSlabs(t, "solve kernel", solveKernel(p), solveKernel(q))
				if q.OriginalPairs != p.OriginalPairs || q.SparsifiedPairs != p.SparsifiedPairs {
					t.Fatalf("pair counts %d/%d, want %d/%d",
						q.OriginalPairs, q.SparsifiedPairs, p.OriginalPairs, p.SparsifiedPairs)
				}

				// The reconstructed similarity — a view of the loaded kernel —
				// must agree with the caller's source similarity on every pair,
				// bitwise.
				for qi := range ds.Instance.Subsets {
					a, b := ds.Instance.Subsets[qi].Sim, q.base.Subsets[qi].Sim
					k := a.Len()
					if b.Len() != k {
						t.Fatalf("subset %d: sim over %d members, want %d", qi, b.Len(), k)
					}
					for i := 0; i < k; i++ {
						for j := 0; j < k; j++ {
							if a.Sim(i, j) != b.Sim(i, j) {
								t.Fatalf("subset %d: Sim(%d,%d) = %v, want %v", qi, i, j, b.Sim(i, j), a.Sim(i, j))
							}
						}
					}
				}

				for _, workers := range []int{1, 2, 8} {
					for _, frac := range []float64{0.3, 0.6} {
						opts := RunOptions{Budget: frac * total, Workers: workers}
						want, err := p.Run(ctx, opts)
						if err != nil {
							t.Fatalf("workers=%d frac=%g: Run(mem): %v", workers, frac, err)
						}
						got, err := q.Run(ctx, opts)
						if err != nil {
							t.Fatalf("workers=%d frac=%g: Run(snap): %v", workers, frac, err)
						}
						if keyOf(got) != keyOf(want) {
							t.Fatalf("workers=%d frac=%g: snapshot run %+v\n  want %+v", workers, frac, keyOf(got), keyOf(want))
						}
					}
				}
			})
		}
	}
}

// TestSnapshotRoundTripLSH covers the LSH-sparsified mode (context vectors,
// seeded SimHash) and the non-CELF algorithms on a loaded snapshot.
func TestSnapshotRoundTripLSH(t *testing.T) {
	ctx := context.Background()
	ds := sweepDataset(t, 17)
	total := ds.Instance.TotalCost()
	p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, UseLSH: true, Seed: 3, InstanceDigest: "digest-lsh"})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	data, err := EncodeSnapshot(p)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	q, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	sameSlabs(t, "base kernel", p.base.Kernel(), q.base.Kernel())
	sameSlabs(t, "solve kernel", solveKernel(p), solveKernel(q))
	for _, algo := range []Algorithm{AlgoCELF, AlgoSviridenko} {
		opts := RunOptions{Budget: 0.5 * total, Algorithm: algo}
		want, err := p.Run(ctx, opts)
		if err != nil {
			t.Fatalf("%s: Run(mem): %v", algo, err)
		}
		got, err := q.Run(ctx, opts)
		if err != nil {
			t.Fatalf("%s: Run(snap): %v", algo, err)
		}
		if keyOf(got) != keyOf(want) {
			t.Fatalf("%s: snapshot run %+v, want %+v", algo, keyOf(got), keyOf(want))
		}
	}
}

// smallSnapshot returns an encoded snapshot of a small sparsified Prepared —
// compact enough that exhaustive per-byte corruption stays fast.
func smallSnapshot(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	inst := par.Random(rng, par.RandomConfig{
		Photos:     12,
		Subsets:    3,
		MaxSubset:  6,
		RetainFrac: 0.1,
		SimDensity: 0.5,
	})
	p, err := Prepare(context.Background(), &dataset.Dataset{Instance: inst},
		PrepareOptions{Tau: 0.4, InstanceDigest: "digest-small"})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	data, err := EncodeSnapshot(p)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	return data
}

// TestSnapshotFlipAnyByte is the integrity guarantee the wire format was
// designed around: flipping ANY single byte of a snapshot — header, section
// table, or any payload byte — must make decoding fail with ErrBadSnapshot.
// No byte of the file is outside a checksum's coverage.
func TestSnapshotFlipAnyByte(t *testing.T) {
	data := smallSnapshot(t)
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	buf := make([]byte, len(data))
	for i := range data {
		copy(buf, data)
		buf[i] ^= 0x5A
		p, err := DecodeSnapshot(buf)
		if err == nil {
			t.Fatalf("flip at byte %d/%d went undetected (decoded %d photos)", i, len(data), p.NumPhotos())
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("flip at byte %d: error %v does not wrap ErrBadSnapshot", i, err)
		}
	}
}

// TestSnapshotTruncation feeds every proper prefix of a valid snapshot to
// the decoder: all must fail cleanly with ErrBadSnapshot, none may panic.
func TestSnapshotTruncation(t *testing.T) {
	data := smallSnapshot(t)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("prefix of %d/%d bytes: error %v does not wrap ErrBadSnapshot", n, len(data), err)
		}
	}
}

// snapSections splits an encoded snapshot into its raw fingerprint and its
// sections, payloads copied, in file order; assembleSnapshot(rawFP, secs)
// reproduces the file.
func snapSections(data []byte) ([]byte, []snapSection) {
	var secs []snapSection
	n := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < n; i++ {
		e := data[snapHeaderFixed+snapTableEntry*i:]
		off, l := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		secs = append(secs, snapSection{binary.LittleEndian.Uint32(e), bytes.Clone(data[off : off+l])})
	}
	return bytes.Clone(data[16:snapHeaderFixed]), secs
}

// TestSnapshotRejectsV1 pins the cut-overs to versions 2, 3 and 4: version 1
// files stored a per-entry W·R slab per kernel, version 2 files a copy of
// every similarity beside the kernels, version 3 files no owning tenant, and
// this build keeps no reader for any of them. A file that says version 1, 2
// or 3 — with a header checksum that is otherwise valid — fails with
// ErrBadSnapshot, which sends it down the quarantine and cold-Prepare path.
// So does a current-version file carrying one of the retired section IDs.
func TestSnapshotRejectsV1(t *testing.T) {
	data := smallSnapshot(t)
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	for _, version := range []uint32{1, 2, 3} {
		old := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(old[8:], version)
		tableEnd := snapHeaderFixed + snapTableEntry*int(binary.LittleEndian.Uint32(old[12:]))
		hcrc := crc32.Checksum(old[:tableEnd], snapCRC)
		binary.LittleEndian.PutUint32(old[tableEnd:], hcrc)
		binary.LittleEndian.PutUint32(old[tableEnd+4:], ^hcrc)
		if _, err := DecodeSnapshot(old); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("version %d file: error %v, want ErrBadSnapshot", version, err)
		}
	}

	// Re-assemble the file with a retired section prepended: version 1's
	// per-entry W·R slabs (7 base, 12 sparse) and version 2's similarity
	// CSR row offsets (3 base, 8 sparse) and neighbour lists (4 base, 9
	// sparse), all 8-byte aligned like every other f64/i64 slab.
	rawFP, secs := snapSections(data)
	if re := assembleSnapshot(rawFP, secs); !bytes.Equal(re, data) {
		t.Fatal("re-assembling the sections did not reproduce the file")
	}
	for _, id := range []uint32{3, 4, 7, 8, 9, 12} {
		retired := append([]snapSection{{id, make([]byte, 64)}}, secs...)
		if _, err := DecodeSnapshot(assembleSnapshot(rawFP, retired)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("retired section %d: error %v, want ErrBadSnapshot", id, err)
		}
	}
}

// TestSnapshotRejectsBadKernelRows: the kernel slabs are the similarity of
// a decoded Prepared, so a file whose checksums all hold but whose base
// kernel breaks a similarity invariant must fail with ErrBadSnapshot — a
// NaN similarity, an entry targeting another subset's row, a row out of
// ascending order, a row without its self entry, a self entry other than 1.
// Each file is re-sealed with fresh checksums, so only the new slab checks
// can catch it.
func TestSnapshotRejectsBadKernelRows(t *testing.T) {
	data := smallSnapshot(t)
	rawFP, pristine := snapSections(data)
	at := func(secs []snapSection, id uint32) *snapSection {
		for i := range secs {
			if secs[i].id == id {
				return &secs[i]
			}
		}
		t.Fatalf("no section %d", id)
		return nil
	}
	// The base kernel's row layout, read from the pristine file.
	rowLen := i32View(at(pristine, secKBRowLen).data)
	rowStart := i64View(at(pristine, secKBRowStart).data)
	nbrIdx := i32View(at(pristine, secKBNbrIdx).data)
	if len(rowLen) < 2 {
		t.Fatalf("snapshot has %d subsets, want at least 2", len(rowLen))
	}
	// r is the last row of subset 0 with an entry besides its self entry.
	r := -1
	for i := 0; i < int(rowLen[0]); i++ {
		if rowStart[i+1]-rowStart[i] >= 2 {
			r = i
		}
	}
	if r < 0 {
		t.Fatal("subset 0 has no row with a neighbour")
	}
	lo, hi := int(rowStart[r]), int(rowStart[r+1])
	self := lo
	for nbrIdx[self] != int32(r) {
		self++
	}
	other := lo // an entry of row r that is not its self entry
	if other == self {
		other++
	}

	setF64 := func(b []byte, i int, v float64) { binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v)) }
	setI32 := func(b []byte, i int, v int32) { binary.LittleEndian.PutUint32(b[4*i:], uint32(v)) }
	for _, tc := range []struct {
		name, want string
		fault      func(secs []snapSection)
	}{
		{"nan similarity", "out of (0,1]", func(secs []snapSection) {
			setF64(at(secs, secKBNbrSim).data, other, math.NaN())
		}},
		{"self similarity below 1", "self-similarity", func(secs []snapSection) {
			setF64(at(secs, secKBNbrSim).data, self, 0.5)
		}},
		{"cross-subset target", "outside", func(secs []snapSection) {
			// Row r's last entry now targets subset 1's first row: still
			// ascending, still in range, but in another subset.
			setI32(at(secs, secKBNbrIdx).data, hi-1, rowLen[0])
		}},
		{"unsorted row", "not strictly ascending", func(secs []snapSection) {
			idx, sim := at(secs, secKBNbrIdx).data, at(secs, secKBNbrSim).data
			a, b := lo, lo+1
			for k := 0; k < 4; k++ {
				idx[4*a+k], idx[4*b+k] = idx[4*b+k], idx[4*a+k]
			}
			for k := 0; k < 8; k++ {
				sim[8*a+k], sim[8*b+k] = sim[8*b+k], sim[8*a+k]
			}
		}},
		{"missing self entry", "missing its self entry", func(secs []snapSection) {
			// Drop row r's self entry and shift every later row's offset.
			idx, sim := at(secs, secKBNbrIdx), at(secs, secKBNbrSim)
			idx.data = append(idx.data[:4*self:4*self], idx.data[4*self+4:]...)
			sim.data = append(sim.data[:8*self:8*self], sim.data[8*self+8:]...)
			rs := at(secs, secKBRowStart).data
			for i := r + 1; i < len(rowStart); i++ {
				binary.LittleEndian.PutUint64(rs[8*i:], uint64(rowStart[i]-1))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			secs := make([]snapSection, len(pristine))
			for i, s := range pristine {
				secs[i] = snapSection{s.id, bytes.Clone(s.data)}
			}
			tc.fault(secs)
			_, err := DecodeSnapshot(assembleSnapshot(rawFP, secs))
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v, want ErrBadSnapshot", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the fault (%q)", err, tc.want)
			}
		})
	}
}

// FuzzSnapshotDecode hammers the decoder two ways: with arbitrary mutations
// of a whole snapshot file, which mostly stop at a checksum, and with one
// section's payload replaced and the file re-sealed with fresh checksums
// (assembleSnapshot), which reaches the slab and instance validation behind
// them. Whatever the bytes, DecodeSnapshot must return a typed error or a
// valid Prepared — never panic, never index out of range.
func FuzzSnapshotDecode(f *testing.F) {
	data := smallSnapshot(f)
	rawFP, secs := snapSections(data)
	f.Add(data, uint8(0), secs[0].data)
	f.Add(data[:len(data)/2], uint8(0), secs[0].data)
	f.Add([]byte(snapMagic), uint8(0), secs[0].data)
	f.Add([]byte{}, uint8(0), secs[0].data)
	for i, s := range secs {
		flipped := bytes.Clone(s.data)
		if len(flipped) > 0 {
			flipped[len(flipped)/2] ^= 0x40
		}
		f.Add([]byte{}, uint8(i), flipped)
	}
	check := func(t *testing.T, b []byte) {
		p, err := DecodeSnapshot(b)
		if err == nil {
			// Anything the decoder accepts must be a coherent Prepared: a
			// solve over it must not panic either.
			if _, rerr := p.Run(context.Background(), RunOptions{Workers: 1}); rerr != nil {
				return // infeasible budgets etc. are fine; only panics matter
			}
		} else if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrNoCtxVectors) {
			t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, which uint8, payload []byte) {
		check(t, b)
		resealed := slices.Clone(secs)
		resealed[int(which)%len(secs)].data = payload
		check(t, assembleSnapshot(rawFP, resealed))
	})
}

// TestSnapshotStore covers the durable layer: atomic save, load-by-
// fingerprint, quarantine of corrupt files, warm-fill into a PreparedCache,
// and the sweep of orphaned temp files left by a crash mid-save.
func TestSnapshotStore(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatalf("OpenSnapshotStore: %v", err)
	}
	ctx := context.Background()

	var fps []string
	for i := 0; i < 2; i++ {
		ds := snapDataset(t, int64(40+i), snapSimVariants["dense"])
		p, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, InstanceDigest: fmt.Sprintf("digest-%d", i)})
		if err != nil {
			t.Fatalf("Prepare %d: %v", i, err)
		}
		path, size, err := store.Save(p)
		if err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != size {
			t.Fatalf("Save %d reported %d bytes at %s, stat says %v/%v", i, size, path, st, err)
		}
		fp, _ := p.Fingerprint()
		fps = append(fps, fp)

		got, err := store.Load(fp)
		if err != nil {
			t.Fatalf("Load %d: %v", i, err)
		}
		sameSlabs(t, "loaded base kernel", p.base.Kernel(), got.base.Kernel())
	}

	// A third snapshot, corrupted on disk after a clean save.
	ds := snapDataset(t, 77, snapSimVariants["dense"])
	p3, err := Prepare(ctx, ds, PrepareOptions{Tau: 0.5, InstanceDigest: "digest-corrupt"})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	path3, _, err := store.Save(p3)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw, err := os.ReadFile(path3)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path3, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fp3, _ := p3.Fingerprint()
	if _, err := store.Load(fp3); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Load of corrupted file: error %v does not wrap ErrBadSnapshot", err)
	}

	// An orphaned temp file from a crash between temp-write and rename.
	orphan := filepath.Join(dir, fps[0]+".snap.tmp")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stray file that is not a snapshot must be left alone.
	stray := filepath.Join(dir, "README")
	if err := os.WriteFile(stray, []byte("notes"), 0o644); err != nil {
		t.Fatal(err)
	}

	cache := NewPreparedCache(8, 0)
	var loads, corrupts int
	stats, err := store.WarmFill(cache,
		func(fp string, p *Prepared, d time.Duration) { loads++ },
		func(fp string, err error) {
			corrupts++
			if !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("onCorrupt error %v does not wrap ErrBadSnapshot", err)
			}
		})
	if err != nil {
		t.Fatalf("WarmFill: %v", err)
	}
	if stats.Loaded != 2 || stats.Corrupt != 1 || stats.TempSwept != 1 {
		t.Fatalf("WarmFill stats = %+v, want Loaded=2 Corrupt=1 TempSwept=1", stats)
	}
	if loads != 2 || corrupts != 1 {
		t.Fatalf("callbacks: %d loads, %d corrupts", loads, corrupts)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
	for _, fp := range fps {
		if _, ok := probe(cache, fp); !ok {
			t.Fatalf("fingerprint %.12s… missing from warm cache", fp)
		}
	}
	if _, err := os.Stat(path3 + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file not swept: %v", err)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray non-snapshot file was touched: %v", err)
	}
	// A second warm-fill sees the already-quarantined file as gone.
	stats2, err := store.WarmFill(NewPreparedCache(8, 0), nil, nil)
	if err != nil || stats2.Loaded != 2 || stats2.Corrupt != 0 {
		t.Fatalf("second WarmFill = %+v (%v), want Loaded=2 Corrupt=0", stats2, err)
	}
}

// TestSnapshotStoreNameMismatch: a snapshot renamed to a different (valid-
// looking) fingerprint must be rejected — the embedded fingerprint is
// authoritative.
func TestSnapshotStoreNameMismatch(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds := snapDataset(t, 5, snapSimVariants["dense"])
	p, err := Prepare(context.Background(), ds, PrepareOptions{InstanceDigest: "digest-rename"})
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := store.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	other := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if err := os.Rename(path, store.Path(other)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(other); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Load of renamed snapshot: error %v does not wrap ErrBadSnapshot", err)
	}
}

// TestSnapshotLoadFaster pins the point of the format: decoding a prepared
// snapshot must beat re-running Prepare by a wide margin even at a moderate
// size. It times DecodeSnapshot on an in-memory buffer so the comparison is
// CPU-vs-CPU — raw file-read throughput varies wildly between CI machines,
// while the decode-vs-Prepare ratio only grows with instance size (Prepare's
// similarity work is superlinear, the decode is one linear verified pass).
// BENCH_snapshot.json measures the full store.Load ratio at larger sizes.
// The 3× floor here is deliberately conservative; locally the ratio is ~10×
// already at this size.
func TestSnapshotLoadFaster(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	ds, err := dataset.GeneratePublic(dataset.PublicSpec{Name: "snap-speed", NumPhotos: 2500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Workers: 1 pins the cold path to one core like the decode path.
	opts := PrepareOptions{Tau: 0.4, Workers: 1, InstanceDigest: "digest-speed"}

	t0 := time.Now()
	p, err := Prepare(ctx, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(t0)

	// The store round-trip stays in the test (untimed) so the timed decode
	// runs against bytes that really crossed the on-disk path.
	dir := t.TempDir()
	store, err := OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Save(p); err != nil {
		t.Fatal(err)
	}
	fp, _ := p.Fingerprint()
	buf, err := readAligned(store.Path(fp))
	if err != nil {
		t.Fatal(err)
	}

	// Best of three decodes: one scheduling hiccup must not fail the suite.
	warm := time.Duration(1<<62 - 1)
	var q *Prepared
	for i := 0; i < 3; i++ {
		t1 := time.Now()
		q, err = DecodeSnapshot(buf)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t1); d < warm {
			warm = d
		}
	}
	sameSlabs(t, "base kernel", p.base.Kernel(), q.base.Kernel())

	if warm*3 > cold {
		t.Fatalf("snapshot decode %v not at least 3× faster than cold Prepare %v", warm, cold)
	}
	t.Logf("cold Prepare %v, snapshot decode %v (%.0f×)", cold, warm, float64(cold)/float64(warm))
}
