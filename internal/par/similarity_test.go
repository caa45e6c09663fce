package par

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseSimIndexing(t *testing.T) {
	const n = 6
	d := NewDenseSim(n)
	// Fill every pair with a distinct value and read it back both ways.
	val := 0.01
	want := map[[2]int]float64{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, val)
			want[[2]int{i, j}] = val
			val += 0.01
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := d.Sim(i, j)
			switch {
			case i == j:
				if got != 1 {
					t.Errorf("Sim(%d,%d) = %g, want 1 on diagonal", i, j, got)
				}
			case i < j:
				if got != want[[2]int{i, j}] {
					t.Errorf("Sim(%d,%d) = %g, want %g", i, j, got, want[[2]int{i, j}])
				}
			default:
				if got != d.Sim(j, i) {
					t.Errorf("Sim(%d,%d) = %g, not symmetric with Sim(%d,%d) = %g",
						i, j, got, j, i, d.Sim(j, i))
				}
			}
		}
	}
}

func TestDenseSimPanics(t *testing.T) {
	d := NewDenseSim(3)
	assertPanics(t, "diagonal", func() { d.Set(1, 1, 0.5) })
	assertPanics(t, "negative", func() { d.Set(0, 1, -0.1) })
	assertPanics(t, "above one", func() { d.Set(0, 1, 1.1) })
	assertPanics(t, "negative size", func() { NewDenseSim(-1) })
}

func TestSparseSim(t *testing.T) {
	s := NewSparseSim(4)
	s.Add(0, 2, 0.8)
	s.Add(1, 3, 0.3)
	if got := s.Sim(0, 2); got != 0.8 {
		t.Errorf("Sim(0,2) = %g, want 0.8", got)
	}
	if got := s.Sim(2, 0); got != 0.8 {
		t.Errorf("Sim(2,0) = %g, want 0.8 (symmetric)", got)
	}
	if got := s.Sim(0, 1); got != 0 {
		t.Errorf("Sim(0,1) = %g, want 0", got)
	}
	if got := s.Sim(3, 3); got != 1 {
		t.Errorf("Sim(3,3) = %g, want 1", got)
	}
	nb := s.AppendNeighbors(nil, 0)
	if len(nb) != 2 || nb[0] != (Neighbor{0, 1}) || nb[1] != (Neighbor{2, 0.8}) {
		t.Errorf("AppendNeighbors(nil, 0) = %v, want [{0 1} {2 0.8}]", nb)
	}
	assertPanics(t, "diagonal", func() { s.Add(1, 1, 0.5) })
	assertPanics(t, "zero sim", func() { s.Add(0, 1, 0) })
}

// TestSparseSimBuilderMatchesAdd: bulk building produces the exact
// structure incremental Add does — same rows, same sorted order — for
// random pair sets, including pairs added in descending order (forcing the
// builder's sort path).
func TestSparseSimBuilderMatchesAdd(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		type pair struct {
			i, j int
			sim  float64
		}
		var pairs []pair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					pairs = append(pairs, pair{i, j, 0.01 + 0.99*rng.Float64()})
				}
			}
		}
		// Shuffle so the builder sees unsorted input on some rows.
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })

		incr := NewSparseSim(n)
		bld := NewSparseSimBuilder(n)
		for _, p := range pairs {
			incr.Add(p.i, p.j, p.sim)
			bld.Add(p.i, p.j, p.sim)
		}
		bulk := bld.Build()
		if bulk.Len() != incr.Len() {
			t.Fatalf("seed %d: Len %d != %d", seed, bulk.Len(), incr.Len())
		}
		same := func() {
			t.Helper()
			for i := 0; i < n; i++ {
				a, b := incr.AppendNeighbors(nil, i), bulk.AppendNeighbors(nil, i)
				if len(a) != len(b) {
					t.Fatalf("seed %d: row %d lengths %d != %d", seed, i, len(a), len(b))
				}
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("seed %d: row %d[%d] = %v (builder) vs %v (Add)", seed, i, k, b[k], a[k])
					}
				}
			}
		}
		same()
		// The built rows share one array; growing one must leave its
		// neighbours intact.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !incr.Contains(i, j) {
					incr.Add(i, j, 0.5)
					bulk.Add(i, j, 0.5)
				}
			}
		}
		same()
	}
}

func TestSparseSimBuilderPanics(t *testing.T) {
	assertPanics(t, "diagonal", func() { NewSparseSimBuilder(3).Add(1, 1, 0.5) })
	assertPanics(t, "zero sim", func() { NewSparseSimBuilder(3).Add(0, 1, 0) })
	assertPanics(t, "above one", func() { NewSparseSimBuilder(3).Add(0, 1, 1.5) })
	assertPanics(t, "duplicate pair", func() {
		b := NewSparseSimBuilder(3)
		b.Add(0, 1, 0.5)
		b.Add(1, 0, 0.6)
		b.Build()
	})
	b := NewSparseSimBuilder(3)
	b.Add(2, 1, 0.5)
	b.Add(1, 2, 0.6)
	if _, err := b.TryBuild(); err != ErrDuplicatePair {
		t.Errorf("TryBuild of a pair added twice: err = %v, want ErrDuplicatePair", err)
	}
	assertPanics(t, "out of range", func() { NewSparseSimBuilder(3).Add(0, 3, 0.5) })
}

func TestUniformAndIdentitySim(t *testing.T) {
	u := UniformSim{N: 5}
	if u.Sim(0, 4) != 1 || u.Sim(2, 2) != 1 {
		t.Error("UniformSim should return 1 everywhere")
	}
	id := IdentitySim{N: 5}
	if id.Sim(0, 4) != 0 || id.Sim(2, 2) != 1 {
		t.Error("IdentitySim should be 1 only on the diagonal")
	}
	if nb := id.AppendNeighbors(nil, 3); len(nb) != 1 || nb[0] != (Neighbor{3, 1}) {
		t.Errorf("IdentitySim.AppendNeighbors(nil, 3) = %v, want [{3 1}]", nb)
	}
}

func TestFuncSim(t *testing.T) {
	f := FuncSim{N: 3, F: func(i, j int) float64 { return 0.25 }}
	if f.Sim(1, 1) != 1 {
		t.Error("FuncSim must short-circuit the diagonal to 1")
	}
	if f.Sim(0, 2) != 0.25 {
		t.Error("FuncSim must delegate off-diagonal pairs")
	}
	if f.Len() != 3 {
		t.Error("FuncSim.Len mismatch")
	}
}

// Property: SparseSim built from a DenseSim by copying positive pairs agrees
// with the DenseSim everywhere.
func TestSparseDenseAgreementQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		d := NewDenseSim(n)
		s := NewSparseSim(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					v := rng.Float64()
					if v == 0 {
						continue
					}
					d.Set(i, j, v)
					s.Add(i, j, v)
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.Sim(i, j) != s.Sim(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
