package par

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary wire format: a compact little-endian encoding for large instances
// where the JSON form (which spells out every pair in text) is impractical.
// Layout:
//
//	magic "PAR1" | budget f64 | numPhotos u32 | costs f64...
//	| numRetained u32 | retained u32...
//	| numSubsets u32 | per subset:
//	    nameLen u16 | name | weight f64 | numMembers u32
//	    | members u32... | relevance f64...
//	    | numPairs u32 | (i u32, j u32, sim f64)...
//
// Similarities are serialized sparsely like the JSON format; loading
// produces SparseSim similarities.

var binaryMagic = [4]byte{'P', 'A', 'R', '1'}

// WriteBinary serializes the instance in the binary format.
func WriteBinary(w io.Writer, inst *Instance) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	writeF64 := func(v float64) { binary.Write(bw, binary.LittleEndian, v) }
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	writeU16 := func(v uint16) { binary.Write(bw, binary.LittleEndian, v) }

	writeF64(inst.Budget)
	writeU32(uint32(len(inst.Cost)))
	for _, c := range inst.Cost {
		writeF64(c)
	}
	writeU32(uint32(len(inst.Retained)))
	for _, p := range inst.Retained {
		writeU32(uint32(p))
	}
	writeU32(uint32(len(inst.Subsets)))
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		if len(q.Name) > math.MaxUint16 {
			return fmt.Errorf("par: subset %d name too long (%d bytes)", qi, len(q.Name))
		}
		writeU16(uint16(len(q.Name)))
		if _, err := bw.WriteString(q.Name); err != nil {
			return err
		}
		writeF64(q.Weight)
		writeU32(uint32(len(q.Members)))
		for _, p := range q.Members {
			writeU32(uint32(p))
		}
		for _, r := range q.Relevance {
			writeF64(r)
		}
		pairs := collectPairs(q.Sim)
		writeU32(uint32(len(pairs)))
		for _, pr := range pairs {
			writeU32(uint32(pr.i))
			writeU32(uint32(pr.j))
			writeF64(pr.sim)
		}
	}
	return bw.Flush()
}

// collectPairs enumerates the positive off-diagonal pairs of a similarity,
// using neighbour lists when available.
func collectPairs(s Similarity) []simPair {
	var pairs []simPair
	k := s.Len()
	if nl, ok := s.(NeighborLister); ok {
		var row []Neighbor
		for i := 0; i < k; i++ {
			row = nl.AppendNeighbors(row[:0], i)
			for _, nb := range row {
				if nb.Index > i {
					pairs = append(pairs, simPair{i: int32(i), j: int32(nb.Index), sim: nb.Sim})
				}
			}
		}
		return pairs
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if v := s.Sim(i, j); v > 0 {
				pairs = append(pairs, simPair{i: int32(i), j: int32(j), sim: v})
			}
		}
	}
	return pairs
}

// ReadBinary parses an instance written by WriteBinary and finalizes it.
// Counts in the input are checked against maxEntities, and each array is
// read until a read fails, growing as its values arrive, so a corrupt count
// makes it allocate no more than the input backs.
func ReadBinary(r io.Reader) (*Instance, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("par: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("par: bad magic %q", magic)
	}
	var firstErr error
	readF64 := func() float64 {
		var v float64
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	readU32 := func() uint32 {
		var v uint32
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	readID := func() PhotoID { return PhotoID(readU32()) }
	readU16 := func() uint16 {
		var v uint16
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}

	inst := &Instance{Budget: readF64()}
	n := int(readU32())
	if firstErr != nil {
		return nil, fmt.Errorf("par: truncated header: %w", firstErr)
	}
	const maxEntities = 1 << 28 // guards allocations against corrupt counts
	if n > maxEntities {
		return nil, fmt.Errorf("par: implausible photo count %d", n)
	}
	inst.Cost = readValues(n, readF64, &firstErr)
	nr := int(readU32())
	if nr > n {
		return nil, fmt.Errorf("par: retained count %d exceeds photos %d", nr, n)
	}
	inst.Retained = readValues(nr, readID, &firstErr)
	ns := int(readU32())
	if firstErr != nil {
		return nil, fmt.Errorf("par: truncated: %w", firstErr)
	}
	if ns > maxEntities {
		return nil, fmt.Errorf("par: implausible subset count %d", ns)
	}
	for qi := 0; qi < ns; qi++ {
		nameLen := int(readU16())
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("par: subset %d name: %w", qi, err)
		}
		q := Subset{Name: string(nameBuf), Weight: readF64()}
		k := int(readU32())
		if firstErr != nil {
			return nil, fmt.Errorf("par: truncated subset %d: %w", qi, firstErr)
		}
		if k > maxEntities {
			return nil, fmt.Errorf("par: implausible member count %d", k)
		}
		q.Members = readValues(k, readID, &firstErr)
		q.Relevance = readValues(k, readF64, &firstErr)
		np := int(readU32())
		if firstErr != nil {
			return nil, fmt.Errorf("par: truncated subset %d: %w", qi, firstErr)
		}
		if np > maxEntities {
			return nil, fmt.Errorf("par: implausible pair count %d", np)
		}
		// The pairs are checked in input order, and the first bad one is
		// the error; a pair given twice is found when the pairs ahead of
		// the first bad one (all of them, when none is) are built.
		b := NewSparseSimBuilder(k)
		var bad error
		for e := 0; e < np && bad == nil; e++ {
			i := int(readU32())
			j := int(readU32())
			v := readF64()
			switch {
			case firstErr != nil:
				bad = fmt.Errorf("par: truncated pairs of subset %d: %w", qi, firstErr)
			case i < 0 || i >= k || j < 0 || j >= k || i == j:
				bad = fmt.Errorf("par: subset %d pair (%d,%d) invalid", qi, i, j)
			case v <= 0 || v > 1 || math.IsNaN(v):
				bad = fmt.Errorf("par: subset %d pair similarity %g out of (0,1]", qi, v)
			default:
				b.Add(i, j, v)
			}
		}
		sim, err := b.build(func(i, j int) error {
			return fmt.Errorf("par: subset %d pair (%d,%d) given twice", qi, i, j)
		})
		if err != nil {
			return nil, err
		}
		if bad != nil {
			return nil, bad
		}
		q.Sim = sim
		inst.Subsets = append(inst.Subsets, q)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("par: truncated: %w", firstErr)
	}
	if err := inst.Finalize(); err != nil {
		return nil, err
	}
	return inst, nil
}

// readValues reads up to n values with read, stopping after the first one
// that sets *failed, into a slice that grows as they arrive.
func readValues[T any](n int, read func() T, failed *error) []T {
	out := make([]T, 0, min(n, 1<<12))
	for len(out) < n && *failed == nil {
		out = append(out, read())
	}
	return out
}
