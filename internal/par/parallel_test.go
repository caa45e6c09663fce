package par

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"phocus/internal/gomaxprocs"
)

func TestSparseSimDuplicateAddPanics(t *testing.T) {
	s := NewSparseSim(4)
	s.Add(1, 2, 0.5)
	assertPanics(t, "re-add same order", func() { s.Add(1, 2, 0.7) })
	assertPanics(t, "re-add swapped", func() { s.Add(2, 1, 0.7) })
	// The original value must survive the rejected re-adds.
	if got := s.Sim(1, 2); got != 0.5 {
		t.Errorf("Sim(1,2) = %g after rejected re-adds, want 0.5", got)
	}
}

func TestSparseSimContains(t *testing.T) {
	s := NewSparseSim(5)
	s.Add(0, 3, 0.9)
	for _, tc := range []struct {
		i, j int
		want bool
	}{
		{0, 3, true}, {3, 0, true}, {0, 1, false}, {2, 4, false},
	} {
		if got := s.Contains(tc.i, tc.j); got != tc.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", tc.i, tc.j, got, tc.want)
		}
	}
}

// TestSparseSimRowsSorted: neighbour rows stay sorted by index no matter the
// insertion order, and binary-search lookups agree with a reference map.
func TestSparseSimRowsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 30
	s := NewSparseSim(k)
	ref := map[[2]int]float64{}
	var pairs [][2]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	for _, pr := range pairs {
		if rng.Float64() < 0.4 {
			continue
		}
		sim := 0.1 + 0.9*rng.Float64()
		s.Add(pr[0], pr[1], sim)
		ref[pr] = sim
	}
	for i := 0; i < k; i++ {
		row := s.AppendNeighbors(nil, i)
		for x := 1; x < len(row); x++ {
			if row[x-1].Index >= row[x].Index {
				t.Fatalf("row %d not strictly sorted: %v", i, row)
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			want := ref[[2]int{i, j}]
			if w, ok := ref[[2]int{j, i}]; ok {
				want = w
			}
			if got := s.Sim(i, j); got != want {
				t.Fatalf("Sim(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

// TestGainsMatchesGain: the batched read-only path must return exactly the
// values sequential Gain reports, and bump the eval counter by the batch size.
func TestGainsMatchesGain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := Random(rng, RandomConfig{Photos: 40, Subsets: 16, BudgetFrac: 0.4})
	seq := NewEvaluator(inst)
	batch := NewEvaluator(inst)
	for _, e := range []*Evaluator{seq, batch} {
		e.Seed()
		for _, p := range []PhotoID{2, 11, 29} {
			if e.Fits(p) {
				e.Add(p)
			}
		}
	}
	var photos []PhotoID
	for p := 0; p < inst.NumPhotos(); p++ {
		if !seq.Contains(PhotoID(p)) {
			photos = append(photos, PhotoID(p))
		}
	}
	want := make([]float64, len(photos))
	for i, p := range photos {
		want[i] = seq.Gain(p)
	}
	before := batch.GainEvals()
	got := make([]float64, len(photos))
	gomaxprocs.Set(t, 4)
	batch.GainsInto(got, photos)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("GainsInto[%d] (photo %d) = %g, want %g", i, photos[i], got[i], want[i])
		}
	}
	if d := batch.GainEvals() - before; d != int64(len(photos)) {
		t.Errorf("GainEvals grew by %d, want %d", d, len(photos))
	}
}

// TestReadJSONRejectsDuplicatePair: duplicate input pairs are an error for
// untrusted wire data, not a panic.
func TestReadJSONRejectsDuplicatePair(t *testing.T) {
	const body = `{
		"costs": [1, 1, 1],
		"budget": 3,
		"subsets": [{
			"name": "q0", "weight": 1,
			"members": [0, 1, 2], "relevance": [0.5, 0.3, 0.2],
			"sim": [{"i":0,"j":1,"s":0.5}, {"i":1,"j":0,"s":0.6}]
		}]
	}`
	_, err := ReadJSON(strings.NewReader(body))
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want duplicate-pair error", err)
	}
}

// TestReadBinaryRejectsDuplicatePair: same guarantee on the binary format.
func TestReadBinaryRejectsDuplicatePair(t *testing.T) {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	buf.WriteString("PAR1")
	w(float64(3)) // budget
	w(uint32(3))  // photos
	w(float64(1)) // costs
	w(float64(1))
	w(float64(1))
	w(uint32(0)) // retained
	w(uint32(1)) // subsets
	w(uint16(2))
	buf.WriteString("q0")
	w(float64(1)) // weight
	w(uint32(3))  // members
	w(uint32(0))
	w(uint32(1))
	w(uint32(2))
	w(float64(0.5)) // relevance
	w(float64(0.3))
	w(float64(0.2))
	w(uint32(2)) // pairs: (0,1) twice, order swapped
	w(uint32(0))
	w(uint32(1))
	w(float64(0.5))
	w(uint32(1))
	w(uint32(0))
	w(float64(0.6))
	_, err := ReadBinary(&buf)
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want duplicate-pair error", err)
	}
}
