package par_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/par"
)

// p1kBody returns the wire form of the P-1K public dataset (1000 photos,
// S0 = 2% of them), generated once per test binary.
var p1kBody = sync.OnceValues(func() ([]byte, error) {
	spec := dataset.PublicSpecs(1)[0]
	spec.RetainFrac = 0.02
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = par.WriteJSON(&buf, ds.Instance)
	return buf.Bytes(), err
})

// twoMembers is a one-subset, two-photo instance whose single similarity
// triple is spliced in as its %s.
const twoMembers = `{"costs":[1,1],"budget":2,"subsets":[{"name":"q","weight":1,"members":[0,1],"relevance":[0.5,0.5],"sim":[%s]}]}`

// FuzzReadJSON holds DecodeJSONVectors to the encoding/json reference
// decoder: on every input both fail, or both succeed with identical
// instances, similarity rows, vectors and compiled kernel slabs. Every
// decoded row must keep SparseSim's invariants (checkSparseRows). A loaded
// instance must also score within the objective's range and survive a
// round trip.
func FuzzReadJSON(f *testing.F) {
	var fig bytes.Buffer
	if err := par.WriteJSON(&fig, par.Figure1Instance()); err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= fig.Len(); n++ {
		f.Add(fig.String()[:n])
	}
	body, err := p1kBody()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(body))
	pair := func(p string) string { return strings.Replace(twoMembers, "%s", p, 1) }
	deep := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"costs":[1],"budget":1,"subsets":[]}`
	}
	for _, s := range []string{
		`{}`, `null`, ` `, `[]`, `"x"`, `{"costs":1}`,
		`{"costs":[1],"budget":1,"subsets":[{"name":"q","weight":1,"members":[0],"relevance":[1],"sim":[]}]}`,
		`{"costs":[1,2],"budget":-5,"subsets":[]}`,
		pair(`{"i":0,"j":1,"s":2}`),
		// Keys: case folding, escapes, Unicode folds (ſ folds to s).
		`{"Costs":[1],"BUDGET":1,"Subsets":[{"Name":"q","WEIGHT":1,"Members":[0],"Relevance":[1],"SIM":[{"I":0,"J":0,"S":0.5}]}]}`,
		`{"costs":[1,1],"budget":2,"subsets":[{"name":"q","weight":1,"members":[0,1],"relevance":[0.5,0.5],"ſim":[{"i":0,"j":1,"ſ":0.5}]}]}`,
		// Unknown fields, at every level.
		`{"costs":[1],"extra":{"a":[1,{"b":null}],"c":"x","d":-1.5e3},"budget":1,"subsets":[{"name":"q","weight":1,"members":[0],"relevance":[1],"tags":[true,false],"sim":[{"i":0,"j":0,"s":1,"note":"diag"}]}]}`,
		// null arrays and scalars.
		`{"costs":[1],"retained":null,"budget":null,"subsets":[{"name":null,"weight":1,"members":[0],"relevance":[1],"sim":null,"vectors":null}]}`,
		`{"costs":[1],"budget":1,"subsets":[null]}`,
		`{"costs":[1,1],"budget":2,"subsets":[{"name":"q","weight":1,"members":[0,1],"relevance":[0.5,null],"sim":[null]}]}`,
		// Duplicate keys decode again into the same value.
		`{"costs":[5,6],"costs":[1],"budget":1,"budget":2,"subsets":[{"name":"a","weight":1,"members":[0],"relevance":[1]}],"subsets":[{"name":"b"}]}`,
		`{"costs":[1,2,3],"costs":[4],"costs":[null,null],"budget":9,"subsets":[]}`,
		`{"costs":[1,1],"budget":2,"subsets":[{"name":"q","weight":1,"members":[0,1],"relevance":[0.5,0.5],"sim":[{"i":0,"j":1,"s":0.5}],"sim":[{"s":0.7}]}]}`,
		// A triple missing keys starts from zero, not from another subset's.
		`{"costs":[1,1],"budget":2,"subsets":[{"name":"a","weight":1,"members":[0,1],"relevance":[0.5,0.5],"sim":[{"i":0,"j":1,"s":0.5}]},{"name":"b","weight":1,"members":[0,1],"relevance":[0.5,0.5],"sim":[{"s":0.5}]}]}`,
		// Number grammar and integer fields.
		pair(`{"i":1.0,"j":0,"s":0.5}`), pair(`{"i":1e2,"j":0,"s":0.5}`),
		pair(`{"i":4294967296,"j":0,"s":0.5}`), pair(`{"i":-0,"j":1,"s":0.5}`),
		pair(`{"i":+1,"j":0,"s":0.5}`), pair(`{"i":0,"j":1,"s":1e400}`),
		pair(`{"i":0,"j":1,"s":1e-400}`), pair(`{"i":01,"j":0,"s":0.5}`),
		pair(`{"i":0,"j":1,"s":.5}`), pair(`{"i":0,"j":1,"s":5E-1}`),
		pair(`{"i":99999999999999999999,"j":0,"s":0.5}`),
		`{"costs":[1],"budget":-0,"subsets":[]}`,
		`{"costs":[1],"retained":[2147483648],"budget":1,"subsets":[]}`,
		`{"costs":[1],"retained":[-2147483649],"budget":1,"subsets":[]}`,
		`{"costs":[1],"retained":[4294967296],"budget":1,"subsets":[]}`,
		`{"costs":[1],"retained":[],"budget":1,"subsets":[]}`,
		// Strings: escapes, non-ASCII, lone surrogates, invalid UTF-8.
		`{"costs":[1],"budget":1,"subsets":[{"name":"café \ud800 \udc00x 😀 \/\"\\\n","weight":1,"members":[0],"relevance":[1]}]}`,
		"{\"costs\":[1],\"budget\":1,\"subsets\":[{\"name\":\"café \xff\xfe\",\"weight\":1,\"members\":[0],\"relevance\":[1]}]}",
		`{"costs":[1],"budget":1,"subsets":[{"name":"bad \u12","weight":1,"members":[0],"relevance":[1]}]}`,
		`{"costs":[1],"budget":1,"note":"bad \x escape","subsets":[]}`,
		`{"costs":[1],"budget":1,"note":"bad \u12 escape","subsets":[]}`,
		"{\"costs\":[1],\"budget\":1,\"subsets\":[{\"name\":\"tab\there\",\"weight\":1,\"members\":[0],\"relevance\":[1]}]}",
		// A pair repeated in the other orientation, and which error wins
		// when a bad pair comes before or after the repeat.
		pair(`{"i":0,"j":1,"s":0.5},{"i":1,"j":0,"s":0.5}`),
		pair(`{"i":0,"j":1,"s":0.5},{"i":1,"j":0,"s":0.5},{"i":0,"j":9,"s":0.5}`),
		pair(`{"i":0,"j":9,"s":0.5},{"i":0,"j":1,"s":0.5},{"i":1,"j":0,"s":0.5}`),
		pair(`{"i":0,"j":1,"s":0.5},{"i":0,"j":1,"s":0},{"i":1,"j":0,"s":0.5}`),
		// Pairs out of WriteJSON's order, so rows must be sorted.
		`{"costs":[1,1,1,1],"budget":4,"subsets":[{"name":"q","weight":1,"members":[0,1,2,3],"relevance":[0.25,0.25,0.25,0.25],"sim":[{"i":3,"j":0,"s":0.3},{"i":2,"j":1,"s":0.5},{"i":0,"j":2,"s":0.4},{"i":1,"j":3,"s":0.9},{"i":1,"j":0,"s":0.2},{"i":3,"j":2,"s":0.7}]}]}`,
		// Context vectors.
		`{"costs":[1,1],"budget":2,"subsets":[{"name":"q","weight":1,"members":[0,1],"relevance":[0.5,0.5],"vectors":[[1,0],[0,1]]}]}`,
		`{"costs":[1,1],"budget":2,"subsets":[{"name":"q","weight":1,"members":[0,1],"relevance":[0.5,0.5],"vectors":[[1,0],[0]]}]}`,
		// Trailing data and nesting depth.
		fig.String() + " garbage", fig.String() + fig.String(), fig.String() + " \t\r\n", `{} x`,
		deep(9999), deep(10000),
		// Every way a triple leaves WriteJSON's layout, where the fast
		// path hands it to the general one: whitespace, key order, case,
		// escapes, repeated and extra keys, null members.
		pair(`{ "i":0,"j":1,"s":0.5}`), pair(`{"i" :0,"j":1,"s":0.5}`), pair(`{"i":0 ,"j":1,"s":0.5}`),
		pair(`{"i":0,"j":1,"s":0.5 }`), pair("{\"i\":0,\n\"j\":1,\t\"s\":0.5}"),
		pair(`{"j":1,"i":0,"s":0.5}`), pair(`{"s":0.5,"i":0,"j":1}`), pair(`{"I":0,"j":1,"s":0.5}`),
		pair(`{"i":0,"J":1,"S":0.5}`), pair(`{"\u0069":0,"j":1,"s":0.5}`), pair(`{"i":0,"\u006a":1,"s":0.5}`),
		pair(`{"i":0,"i":1,"j":0,"s":0.5}`), pair(`{"i":0,"j":1,"s":0.5,"s":0.25}`),
		pair(`{"i":0,"j":1,"s":0.5,"x":1}`), pair(`{"i":0,"j":1,"x":[],"s":0.5}`),
		pair(`{"i":null,"j":1,"s":0.5}`), pair(`{"i":0,"j":null,"s":0.5}`), pair(`{"i":0,"j":1,"s":null}`),
		pair(`{"i":0,"j":1,"s":0.5}` + `,{"i":1,"j":0,"s":null}`), pair(`{"i":0,"j":1,"s":"0.5"}`),
		pair(`{"i":0,"j":1,"s":0.5]`), pair(`{"i":0,"j":1,"s":0.5`), pair(`{"i":0,"j":1,"s":`), pair(`{"i":0,"j":1`),
		// Numbers at each exit of the fused scans: leading zeros, signs,
		// a bare point or sign, int32 and int64 limits, 18-20 digits.
		pair(`{"i":00,"j":1,"s":0.5}`), pair(`{"i":0,"j":01,"s":0.5}`), pair(`{"i":-1,"j":1,"s":0.5}`),
		pair(`{"i":-0,"j":1,"s":0.5}`), pair(`{"i":1.,"j":0,"s":0.5}`), pair(`{"i":0,"j":1,"s":1.}`),
		pair(`{"i":0,"j":1,"s":-}`), pair(`{"i":-,"j":1,"s":0.5}`), pair(`{"i":0,"j":1,"s":0.5e}`),
		pair(`{"i":0,"j":1,"s":0.5e+}`), pair(`{"i":0,"j":1,"s":-0.5}`), pair(`{"i":0,"j":1,"s":00.5}`),
		pair(`{"i":1e0,"j":0,"s":0.5}`), pair(`{"i":1E0,"j":0,"s":0.5}`), pair(`{"i":0,"j":1,"s":1E0}`),
		pair(`{"i":000000000000000001,"j":0,"s":0.5}`), pair(`{"i":999999999999999999,"j":0,"s":0.5}`),
		pair(`{"i":1000000000000000000,"j":0,"s":0.5}`), pair(`{"i":9223372036854775807,"j":0,"s":0.5}`),
		pair(`{"i":9223372036854775808,"j":0,"s":0.5}`), pair(`{"i":-9223372036854775808,"j":0,"s":0.5}`),
		pair(`{"i":18446744073709551617,"j":0,"s":0.5}`), pair(`{"i":0,"j":1,"s":0.5e18446744073709551617}`),
		`{"costs":[1],"retained":[-1],"budget":1,"subsets":[]}`,
		`{"costs":[1],"retained":[2147483647],"budget":1,"subsets":[]}`,
		`{"costs":[1],"retained":[-2147483648],"budget":1,"subsets":[]}`,
		`{"costs":[1],"retained":[01],"budget":1,"subsets":[]}`,
		`{"costs":[1],"retained":[0.5],"budget":1,"subsets":[]}`,
		// Floats at each exit of the Eisel–Lemire conversion: 19 and 20
		// significant digits, exponents, signed zeros, subnormals, the
		// largest float64 and just past it.
		pair(`{"i":0,"j":1,"s":0.1234567890123456789}`), pair(`{"i":0,"j":1,"s":0.12345678901234567891}`),
		pair(`{"i":0,"j":1,"s":0.00000000000000000001234567890123456789}`),
		pair(`{"i":0,"j":1,"s":0.9999999999999999999}`), pair(`{"i":0,"j":1,"s":0.99999999999999999999}`),
		pair(`{"i":0,"j":1,"s":1.0000000000000000000}`), pair(`{"i":0,"j":1,"s":1e-07}`),
		pair(`{"i":0,"j":1,"s":1E+2}`), pair(`{"i":0,"j":1,"s":1e-0}`), pair(`{"i":0,"j":1,"s":-0}`),
		pair(`{"i":0,"j":1,"s":-0.0}`), pair(`{"i":0,"j":1,"s":0e999999999999}`),
		pair(`{"i":0,"j":1,"s":5e-324}`), pair(`{"i":0,"j":1,"s":2.2250738585072011e-308}`),
		pair(`{"i":0,"j":1,"s":1.7976931348623157e308}`), pair(`{"i":0,"j":1,"s":1e309}`),
		pair(`{"i":0,"j":1,"s":1e-99999999999999999999}`), pair(`{"i":0,"j":1,"s":1e99999999999999999999}`),
		`{"costs":[-0,5e-324,1.7976931348623157e308,4.9406564584124654e-324],"budget":1e308,"subsets":[]}`,
		`{"costs":[1],"budget":1.7976931348623159e308,"subsets":[]}`,
		`{"costs":[12345678901234567890123],"budget":9007199254740993,"subsets":[]}`,
	} {
		f.Add(s)
	}
	for _, s := range splitSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		want, wantVecs, wantErr := par.ReferenceDecodeJSONVectors([]byte(data))
		inst, vecs, err := par.DecodeJSONVectors([]byte(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeJSONVectors error %v, reference error %v", err, wantErr)
		}
		// Split over any number of decoders (1: serially), the decode gives
		// the same instance, vectors or error text.
		for _, splits := range []int{1, 2, 3, 8} {
			got, gotVecs, gotErr := par.DecodeJSONVectorsSplit([]byte(data), splits, nil)
			if fmt.Sprint(gotErr) != fmt.Sprint(err) {
				t.Fatalf("%d splits: error %v, DecodeJSONVectors %v", splits, gotErr, err)
			}
			if !reflect.DeepEqual(got, inst) || !reflect.DeepEqual(gotVecs, vecs) {
				t.Fatalf("%d splits: instance or vectors differ from DecodeJSONVectors'", splits)
			}
		}
		if err != nil {
			// Past the decode both run the same checks in the same order.
			if !strings.HasPrefix(wantErr.Error(), "par: decoding instance:") && err.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference %q", err, wantErr)
			}
			return
		}
		sameInstance(t, inst, want)
		if !reflect.DeepEqual(vecs, wantVecs) {
			t.Fatalf("vectors %v, reference %v", vecs, wantVecs)
		}
		checkSparseRows(t, inst)
		// The reference's kernel is compiled row by row from its listed
		// neighbours, not by CompileKernel's SparseSim span copy.
		sameKernel(t, par.CompileKernelRef(want), par.CompileKernel(inst))
		// A successfully loaded instance must behave: scoring any prefix
		// solution must not panic and must be within the objective's range.
		n := inst.NumPhotos()
		sol := make([]par.PhotoID, 0, n)
		for p := 0; p < n && p < 8; p++ {
			sol = append(sol, par.PhotoID(p))
		}
		score := par.Score(inst, sol)
		if score < 0 || score > inst.TotalWeight()+1e-9 {
			t.Fatalf("score %g outside [0, %g]", score, inst.TotalWeight())
		}
		// Round-trip must stay loadable.
		var buf bytes.Buffer
		if err := par.WriteJSON(&buf, inst); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := par.ReadJSON(&buf); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// splitSeeds returns FuzzReadJSON's seeds for the split decode: WriteJSON
// bodies with a false subset separator, a second or null "subsets" key,
// trailing data, deep nesting in the last subset, or a syntax error in
// each subset in turn.
func splitSeeds(tb testing.TB) []string {
	rng := rand.New(rand.NewSource(33))
	write := func(subsets int) string {
		var buf bytes.Buffer
		inst := par.Random(rng, par.RandomConfig{Photos: 20, Subsets: subsets, MaxSubset: 6})
		if err := par.WriteJSON(&buf, inst); err != nil {
			tb.Fatal(err)
		}
		return strings.TrimSpace(buf.String())
	}
	body := write(12)
	seeds := []string{
		body, body + " x", body + body,
		// The separator inside other values: an unknown field's array of
		// objects, a triple's extra key, an escaped quote in a name, and
		// (not JSON) a name that ends on it.
		strings.ReplaceAll(body, `,"weight":`, `,"x":[{},{"name":1}],"weight":`),
		strings.ReplaceAll(body, `},{"i":`, `},{"name":"",`+`"i":`),
		strings.ReplaceAll(body, `,"weight":`, `,"note":"},{\"name\":","weight":`),
		strings.Replace(body, `,"weight":`, `,"note":"},{"name":"x","weight":`, 7),
		// A null subsets array, then a second one; a second array merging
		// into the first, triples included.
		strings.Replace(body, `"subsets":[`, `"subsets":null,"subsets":[`, 1),
		body[:len(body)-1] + `,"subsets":[{"name":"b"},{"sim":[{"s":0.75}]},null]}`,
		body[:len(body)-1] + `,"subsets":[]}`,
		// A repeated "sim" key growing a subset's triples past the ones
		// it had: the new triple starts from zero, not from the scratch an
		// earlier subset decoded into.
		body[:strings.LastIndex(body, `"sim":[`)] + `"sim":[{"i":0,"j":1,"s":0.5}],"sim":[{"i":0,"j":1,"s":0.5},{"s":0.5}]}]}`,
		// A repeated "sim" key shorter than the one before it, then a third
		// merging into both: the triples past the second's length are the
		// first's, as encoding/json leaves them.
		body[:len(body)-2] + `,{"name":"r","weight":1,"members":[0,1,2],"relevance":[0.5,0.25,0.25],` +
			`"sim":[{"i":0,"j":1,"s":0.5},{"i":1,"j":2,"s":0.3}],"sim":[{"i":0,"j":1,"s":0.1}],"sim":[{"s":0.2},{"s":0.4}]}]}`,
	}
	// Nesting at encoding/json's limit, and past it, in the last subset:
	// the instance, the subsets array and the subset take 3 of its 10000
	// levels. The body before it is long enough that 2, 3 and 8 splits all
	// start a split ahead of it.
	long := write(160)
	last := strings.LastIndex(long, `,"weight":`)
	for _, n := range []int{10000 - 3, 10000 - 2} {
		seeds = append(seeds, long[:last]+`,"x":`+strings.Repeat("[", n)+strings.Repeat("]", n)+long[last:])
	}
	for at := len(body); ; {
		if at = strings.LastIndex(body[:at], `,"weight":`); at < 0 {
			return seeds
		}
		seeds = append(seeds, body[:at]+`,"weight"::`+body[at+len(`,"weight":`):])
	}
}

// TestSplitSeedsFallBack requires the split seeds to reach every exit of
// the verification chain: all splits kept, the serial decoder resuming
// after some, and after none.
func TestSplitSeedsFallBack(t *testing.T) {
	var all, some, none int
	for _, s := range splitSeeds(t) {
		for _, splits := range []int{2, 3, 8} {
			var st par.SplitStats
			par.DecodeJSONVectorsSplit([]byte(s), splits, &st)
			switch {
			case st.Ran == 0:
			case st.Verified == st.Ran:
				all++
			case st.Verified > 0:
				some++
			default:
				none++
			}
		}
	}
	if all == 0 || some == 0 || none == 0 {
		t.Fatalf("split decodes with all, some and no splits kept: %d, %d, %d", all, some, none)
	}
}

// TestWriteJSONTakesFastPaths requires the decoder's fast paths to take
// every similarity triple and every number WriteJSON writes, and its split
// decode to keep every split, on the P-1K body every serve_ingest op posts
// and on random instances with context vectors: a writer change that sends
// them down the general path fails.
func TestWriteJSONTakesFastPaths(t *testing.T) {
	p1k, err := p1kBody()
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{"p1k": p1k}
	rng := rand.New(rand.NewSource(25))
	for _, inst := range []*par.Instance{
		par.Figure1Instance(),
		par.Random(rng, par.RandomConfig{Photos: 300, Subsets: 60, MaxSubset: 30, RetainFrac: 0.05}),
	} {
		vectors := make([][][]float64, len(inst.Subsets))
		for qi, q := range inst.Subsets {
			for range q.Members {
				vectors[qi] = append(vectors[qi], []float64{rng.NormFloat64(), rng.Float64(), -rng.ExpFloat64()})
			}
		}
		var buf bytes.Buffer
		if err := par.WriteJSONVectors(&buf, inst, vectors); err != nil {
			t.Fatal(err)
		}
		bodies[fmt.Sprintf("random-%d", inst.NumPhotos())] = buf.Bytes()
	}
	for name, body := range bodies {
		triples, numbers, err := par.CheckFastPaths(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := bytes.Count(body, []byte(`"s":`)); triples != want || triples == 0 {
			t.Fatalf("%s: %d triples on the fast path, %d in the body", name, triples, want)
		}
		t.Logf("%s: %d triples and %d other numbers, all on the fast paths", name, triples, numbers)
		// Every split starts at a subset WriteJSON wrote, so each one is
		// kept: none falls back to the serial decoder.
		for _, splits := range []int{2, 3, 8} {
			var st par.SplitStats
			if _, _, err := par.DecodeJSONVectorsSplit(body, splits, &st); err != nil {
				t.Fatalf("%s, %d splits: %v", name, splits, err)
			}
			if st.Ran < 2 || st.Verified != st.Ran {
				t.Fatalf("%s, %d splits: %d of %d split decoders kept", name, splits, st.Verified, st.Ran)
			}
		}
	}
}

// sameInstance fails t unless got equals want: similarity rows compared
// entry by entry, every float bit for bit, everything else deeply.
func sameInstance(t *testing.T, got, want *par.Instance) {
	t.Helper()
	if len(got.Subsets) != len(want.Subsets) {
		t.Fatalf("%d subsets, reference %d", len(got.Subsets), len(want.Subsets))
	}
	g, w := *got, *want
	g.Subsets, w.Subsets = slices.Clone(got.Subsets), slices.Clone(want.Subsets)
	for qi := range g.Subsets {
		gs, ws := g.Subsets[qi].Sim.(par.NeighborLister), w.Subsets[qi].Sim.(par.NeighborLister)
		if gs.Len() != ws.Len() {
			t.Fatalf("subset %d: similarity over %d members, reference %d", qi, gs.Len(), ws.Len())
		}
		for i := 0; i < gs.Len(); i++ {
			if gr, wr := gs.AppendNeighbors(nil, i), ws.AppendNeighbors(nil, i); !slices.Equal(gr, wr) {
				t.Fatalf("subset %d row %d: %v, reference %v", qi, i, gr, wr)
			}
		}
		if !sameBits(g.Subsets[qi].Relevance, w.Subsets[qi].Relevance) ||
			!sameBits([]float64{g.Subsets[qi].Weight}, []float64{w.Subsets[qi].Weight}) {
			t.Fatalf("subset %d: weight or relevance differ in bits", qi)
		}
		g.Subsets[qi].Sim, w.Subsets[qi].Sim = nil, nil
	}
	if !sameBits(g.Cost, w.Cost) || !sameBits([]float64{g.Budget}, []float64{w.Budget}) {
		t.Fatalf("costs or budget differ in bits")
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("instance %+v, reference %+v", g, w)
	}
}

// checkSparseRows fails t unless every subset's similarity is a SparseSim
// whose rows keep its invariants: each row strictly ascending, holding its
// own member once with similarity 1, and every entry mirrored, bit for bit,
// in its neighbour's row.
func checkSparseRows(t *testing.T, inst *par.Instance) {
	t.Helper()
	for qi, q := range inst.Subsets {
		sim, ok := q.Sim.(*par.SparseSim)
		if !ok {
			t.Fatalf("subset %d: similarity %T, want *par.SparseSim", qi, q.Sim)
		}
		var row []par.Neighbor
		for i := 0; i < sim.Len(); i++ {
			row = sim.AppendNeighbors(row[:0], i)
			self := 0
			for x, nb := range row {
				if x > 0 && nb.Index <= row[x-1].Index {
					t.Fatalf("subset %d row %d not strictly ascending: %v", qi, i, row)
				}
				if nb.Index == i {
					self++
					if nb.Sim != 1 {
						t.Fatalf("subset %d row %d: self entry %g, want 1", qi, i, nb.Sim)
					}
				} else if m := sim.Sim(nb.Index, i); math.Float64bits(m) != math.Float64bits(nb.Sim) {
					t.Fatalf("subset %d: Sim(%d,%d) = %g, mirrored %g", qi, i, nb.Index, nb.Sim, m)
				}
			}
			if self != 1 {
				t.Fatalf("subset %d row %d holds its own member %d times: %v", qi, i, self, row)
			}
		}
	}
}

// sameKernel fails t unless got's slabs hold want's values: == on every
// index and offset, bit for bit on every similarity and slot weight. A nil
// slab and an empty one are equal: the reference compile appends its slabs,
// and CompileKernel allocates them at their final size.
func sameKernel(t *testing.T, want, got *par.Kernel) {
	t.Helper()
	w, g := want.Slabs(), got.Slabs()
	if w.Photos != g.Photos || !slices.Equal(w.RowLen, g.RowLen) || !slices.Equal(w.RowStart, g.RowStart) ||
		!slices.Equal(w.NbrIdx, g.NbrIdx) || !slices.Equal(w.OccStart, g.OccStart) || !slices.Equal(w.OccRow, g.OccRow) ||
		!sameBits(w.NbrSim, g.NbrSim) || !sameBits(w.SlotWR, g.SlotWR) {
		t.Fatalf("kernel slabs differ from the reference decode's")
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestDecodeJSONSharesNoBytesWithBody: a decoded instance shares no bytes
// with its body, serially and split, which is what lets the server reuse a
// body's buffer once it is parsed. Each body is decoded, then every one of
// its bytes is overwritten; the instance's names, members, costs, vectors
// and compiled kernel slabs must still equal a decode of an intact copy.
// The bodies are P-1K's and a random instance's whose names take both
// string paths (plain, and escaped or non-ASCII) and whose subsets carry
// context vectors.
func TestDecodeJSONSharesNoBytesWithBody(t *testing.T) {
	p1k, err := p1kBody()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	inst := par.Random(rng, par.RandomConfig{Photos: 300, Subsets: 60, MaxSubset: 30, RetainFrac: 0.05})
	vectors := make([][][]float64, len(inst.Subsets))
	for qi := range inst.Subsets {
		inst.Subsets[qi].Name = fmt.Sprintf("q%d", qi)
		if qi%2 == 1 {
			inst.Subsets[qi].Name = fmt.Sprintf("café \"%d\"", qi)
		}
		for range inst.Subsets[qi].Members {
			vectors[qi] = append(vectors[qi], []float64{rng.NormFloat64(), rng.Float64()})
		}
	}
	var random bytes.Buffer
	if err := par.WriteJSONVectors(&random, inst, vectors); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"p1k": p1k, "random": random.Bytes()} {
		for _, splits := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s, %d splits", name, splits)
			want, wantVecs, err := par.DecodeJSONVectorsSplit(body, splits, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			scratch := bytes.Clone(body)
			got, gotVecs, err := par.DecodeJSONVectorsSplit(scratch, splits, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i := range scratch {
				scratch[i] = 0xFF
			}
			for qi := range want.Subsets {
				g, w := &got.Subsets[qi], &want.Subsets[qi]
				if g.Name != w.Name || !slices.Equal(g.Members, w.Members) {
					t.Fatalf("%s: subset %d is %q %v after the body was overwritten, want %q %v", label, qi, g.Name, g.Members, w.Name, w.Members)
				}
			}
			if !sameBits(got.Cost, want.Cost) || !reflect.DeepEqual(gotVecs, wantVecs) {
				t.Fatalf("%s: costs or vectors changed with the body", label)
			}
			par.SameSlabs(t, label, par.CompileKernel(want), par.CompileKernel(got))
			sameInstance(t, got, want)
		}
	}
}
