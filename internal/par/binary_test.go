package par

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	inst := Figure1Instance()
	inst.Retained = []PhotoID{5}
	if err := inst.Finalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, inst); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.NumPhotos() != 7 || len(got.Subsets) != 4 || got.Budget != inst.Budget {
		t.Fatalf("shape changed: %d photos, %d subsets, budget %g",
			got.NumPhotos(), len(got.Subsets), got.Budget)
	}
	if got.Subsets[0].Name != "Bikes" {
		t.Errorf("subset name %q", got.Subsets[0].Name)
	}
	for _, s := range [][]PhotoID{{0}, {0, 5}, {1, 2, 3}, {0, 1, 2, 3, 4, 5, 6}} {
		if math.Abs(Score(inst, s)-Score(got, s)) > 1e-12 {
			t.Errorf("Score(%v) changed through round trip", s)
		}
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := Random(rng, RandomConfig{Photos: 40, Subsets: 20, RetainFrac: 0.1})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, inst); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		s := randomSolution(rng, 40)
		if math.Abs(Score(inst, s)-Score(got, s)) > 1e-9 {
			t.Fatalf("score mismatch for %v", s)
		}
	}
	if len(got.Retained) != len(inst.Retained) {
		t.Errorf("retained count %d, want %d", len(got.Retained), len(inst.Retained))
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inst := Random(rng, RandomConfig{Photos: 200, Subsets: 100})
	var jbuf, bbuf bytes.Buffer
	if err := WriteJSON(&jbuf, inst); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bbuf, inst); err != nil {
		t.Fatal(err)
	}
	if bbuf.Len() >= jbuf.Len() {
		t.Errorf("binary (%d B) not smaller than JSON (%d B)", bbuf.Len(), jbuf.Len())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, Figure1Instance()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"empty", nil, "magic"},
		{"bad magic", []byte("NOPE1234"), "bad magic"},
		{"truncated header", valid[:6], "truncated"},
		{"truncated body", valid[:len(valid)/2], "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBinary(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("ReadBinary succeeded, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestReadBinaryRejectsCorruptCounts(t *testing.T) {
	// Header with an implausible photo count must fail fast instead of
	// allocating gigabytes.
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 240, 63}) // budget 1.0
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})    // numPhotos max u32
	if _, err := ReadBinary(&buf); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("err = %v, want implausible count rejection", err)
	}
}

// FuzzReadBinary ensures arbitrary bytes never panic or over-allocate.
func FuzzReadBinary(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteBinary(&valid, Figure1Instance()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("PAR1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Loaded instances must be usable.
		var sol []PhotoID
		for p := 0; p < inst.NumPhotos() && p < 4; p++ {
			sol = append(sol, PhotoID(p))
		}
		if s := Score(inst, sol); s < 0 || math.IsNaN(s) {
			t.Fatalf("invalid score %g from loaded instance", s)
		}
	})
}

// TestReadBinaryPairErrorOrder pins which pair error ReadBinary names: the
// pairs are checked in input order, so the first bad one wins, and a pair
// given twice is named by its first repeat, ahead of any later bad pair or
// truncation.
func TestReadBinaryPairErrorOrder(t *testing.T) {
	type pr struct {
		i, j uint32
		s    float64
	}
	body := func(declared int, pairs ...pr) *bytes.Buffer {
		var buf bytes.Buffer
		w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
		buf.WriteString("PAR1")
		w(float64(3))
		w(uint32(3))
		w([]float64{1, 1, 1})
		w(uint32(0)) // retained
		w(uint32(1)) // subsets
		w(uint16(1))
		buf.WriteString("q")
		w(float64(1))
		w(uint32(3))
		w([]uint32{0, 1, 2})
		w([]float64{0.5, 0.3, 0.2})
		w(uint32(declared))
		for _, p := range pairs {
			w(p.i)
			w(p.j)
			w(p.s)
		}
		return &buf
	}
	for _, tc := range []struct {
		body *bytes.Buffer
		want string
	}{
		{body(4, pr{0, 1, 0.5}, pr{1, 2, 0.5}, pr{2, 1, 0.4}, pr{1, 0, 0.5}), "par: subset 0 pair (2,1) given twice"},
		{body(3, pr{0, 1, 0.5}, pr{1, 0, 0.5}, pr{0, 5, 0.5}), "par: subset 0 pair (1,0) given twice"},
		{body(3, pr{0, 5, 0.5}, pr{0, 1, 0.5}, pr{1, 0, 0.5}), "par: subset 0 pair (0,5) invalid"},
		{body(2, pr{1, 1, 0.5}, pr{0, 1, 0.5}), "par: subset 0 pair (1,1) invalid"},
		{body(3, pr{0, 1, 0.5}, pr{0, 2, 1.5}, pr{1, 0, 0.5}), "par: subset 0 pair similarity 1.5 out of (0,1]"},
		{body(3, pr{0, 1, 0.5}, pr{1, 0, 0.5}), "par: subset 0 pair (1,0) given twice"},
		{body(3, pr{0, 1, 0.5}, pr{1, 2, 0.5}), "par: truncated pairs of subset 0: EOF"},
	} {
		if _, err := ReadBinary(tc.body); err == nil || err.Error() != tc.want {
			t.Errorf("error %v, want %q", err, tc.want)
		}
	}
}

// TestReadBinaryCorruptCountAllocatesLittle: a truncated body that declares
// 2^24 photos, then a subset of 2^24 members, fails as truncated without
// allocating for the counts it declares: each array grows only as its
// values arrive.
func TestReadBinaryCorruptCountAllocatesLittle(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteBinary(&valid, Figure1Instance()); err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 24
	photos := valid.Bytes()[:20]
	binary.LittleEndian.PutUint32(photos[12:], huge)
	var subset bytes.Buffer
	w := func(v any) { binary.Write(&subset, binary.LittleEndian, v) }
	subset.WriteString("PAR1")
	w(float64(1))
	w(uint32(1))
	w(float64(1))
	w(uint32(0))
	w(uint32(1))
	w(uint16(1))
	subset.WriteString("q")
	w(float64(1))
	w(uint32(huge))
	w(uint32(0))
	for name, data := range map[string][]byte{"photos": photos, "members": subset.Bytes()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: error %v, want a truncation", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: a truncated body declaring %d allocated %d bytes", name, huge, got)
		}
	}
}
