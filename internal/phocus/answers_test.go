package phocus

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"phocus/internal/dataset"
	"phocus/internal/gomaxprocs"
	"phocus/internal/par"
)

// The answer ledger pins the engine's answers across commits: every case
// below hashes one Run's answer, and testdata/answers.json holds the hashes
// the last commit that changed answers recorded. A change that moves an
// answer on purpose rewrites the file with
//
//	go test ./internal/phocus -run TestAnswers -update -answers.full
//
// and names every case whose hash moved.
var (
	updateAnswers = flag.Bool("update", false, "rewrite testdata/answers.json with the answers of this build")
	answersFull   = flag.Bool("answers.full", false, "also run the ledger's P-100K ×0.05 cases (the engine_sweep ladder and the engine_churn chain)")
)

var answersFile = filepath.Join("testdata", "answers.json")

// answerLadder is the five-rung budget ladder the engine benchmarks sweep,
// as fractions of the archive's total cost.
var answerLadder = []float64{0.05, 0.10, 0.15, 0.20, 0.30}

// answerProcs are the GOMAXPROCS values every case runs at: 1 takes CELF's
// sequential pass pair, 2 the concurrent one.
var answerProcs = []int{1, 2}

// answerHash is the ledger's digest of a Run's answer: a sha256 over the
// selected photo IDs in selection order, then the bits of the cost, the
// score and the online bound.
func answerHash(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range r.Solution.Photos {
		binary.LittleEndian.PutUint32(buf[:4], uint32(p))
		h.Write(buf[:4])
	}
	for _, f := range []float64{r.Solution.Cost, r.Solution.Score, r.OnlineBound} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// answerSet collects the hashes of one ledger run, keyed by case name.
type answerSet map[string]string

// run Runs p at budget with algo and records the answer under name.
func (s answerSet) run(t *testing.T, p *Prepared, name string, budget float64, algo Algorithm) {
	t.Helper()
	res, err := p.Run(context.Background(), RunOptions{Budget: budget, Algorithm: algo})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	s.put(t, name, answerHash(res))
}

func (s answerSet) put(t *testing.T, name, hash string) {
	t.Helper()
	if _, dup := s[name]; dup {
		t.Fatalf("answer case %q recorded twice", name)
	}
	s[name] = hash
}

// publicAnswerDataset generates a public-shape archive with S0 = 2% of its
// photos, as the benchmarks do.
func publicAnswerDataset(t *testing.T, spec dataset.PublicSpec) *dataset.Dataset {
	t.Helper()
	spec.RetainFrac = 0.02
	ds, err := dataset.GeneratePublic(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// ladderAnswers records, at each of answerProcs, a fresh Prepare's answers
// on every rung of the ladder: CELF run in full (the trace dropped before
// each Run), streaming, and CELF continued from the trace the largest rung
// recorded.
func ladderAnswers(s answerSet, t *testing.T, label string, ds *dataset.Dataset, tau float64) {
	ctx := context.Background()
	total := ds.Instance.TotalCost()
	top := answerLadder[len(answerLadder)-1] * total
	for _, procs := range answerProcs {
		gomaxprocs.Set(t, procs)
		p, err := Prepare(ctx, ds, PrepareOptions{Tau: tau, InstanceDigest: label})
		if err != nil {
			t.Fatal(err)
		}
		name := func(kind string, f float64) string {
			return fmt.Sprintf("%s tau=%g %s rung=%g procs=%d", label, tau, kind, f, procs)
		}
		for _, f := range answerLadder {
			p.trace = nil
			s.run(t, p, name("celf-full", f), f*total, AlgoCELF)
			s.run(t, p, name("streaming", f), f*total, AlgoStreaming)
		}
		p.trace = nil
		if _, err := p.Run(ctx, RunOptions{Budget: top, SkipBound: true}); err != nil {
			t.Fatal(err)
		}
		for _, f := range answerLadder {
			s.run(t, p, name("celf-continued", f), f*total, AlgoCELF)
		}
	}
}

// churnAnswers records, at each of answerProcs, the answers along a chain
// of 1% churn batches (0.5% removals, 0.5% additions) applied to a fresh
// Prepare: after each batch one CELF and one streaming Run at the next rung
// of the ladder. The chain stops after its first compaction, or after
// batches batches when batches is positive.
func churnAnswers(s answerSet, t *testing.T, label string, ds *dataset.Dataset, tau float64, seed int64, batches int) {
	ctx := context.Background()
	churn := ds.Instance.NumPhotos() / 200
	// randomChurn draws an added photo's cost from [0.5, 2.5); scaled by
	// the mean photo cost, it is on the archive's byte scale.
	meanCost := ds.Instance.TotalCost() / float64(ds.Instance.NumPhotos())
	for _, procs := range answerProcs {
		gomaxprocs.Set(t, procs)
		live, err := Prepare(ctx, ds, PrepareOptions{Tau: tau, InstanceDigest: label})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		compacted := false
		for batch := 0; batches > 0 && batch < batches || batches <= 0 && !compacted; batch++ {
			if batch == 200 {
				t.Fatalf("%s: no compaction in %d batches", label, batch)
			}
			d := randomChurn(rng, live.base, live.removed, churn, churn, false)
			for i := range d.Add {
				d.Add[i].Cost *= meanCost
			}
			st, err := live.ApplyDelta(ctx, d)
			if err != nil {
				t.Fatalf("%s batch %d: %v", label, batch, err)
			}
			compacted = st.Compacted
			f := answerLadder[batch%len(answerLadder)]
			budget := f * live.TotalCost()
			for _, algo := range []Algorithm{AlgoCELF, AlgoStreaming} {
				s.run(t, live, fmt.Sprintf("%s tau=%g churn batch=%02d %s rung=%g compacted=%v procs=%d",
					label, tau, batch, algo, f, compacted, procs), budget, algo)
			}
		}
	}
}

// snapshotAnswers records the bytes of a Prepare's snapshot and the CELF
// answers of its decoded twin on every rung of the ladder.
func snapshotAnswers(s answerSet, t *testing.T, label string, ds *dataset.Dataset, tau float64) {
	p, err := Prepare(context.Background(), ds, PrepareOptions{Tau: tau, InstanceDigest: label})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := EncodeSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	s.put(t, fmt.Sprintf("%s tau=%g snapshot bytes", label, tau), hex.EncodeToString(sum[:]))
	q, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	total := ds.Instance.TotalCost()
	for _, f := range answerLadder {
		s.run(t, q, fmt.Sprintf("%s tau=%g snapshot celf rung=%g", label, tau, f), f*total, AlgoCELF)
	}
}

// wireAnswers records, at each of answerProcs, the answers of an archive
// that went through the wire format, as the server receives it: WriteJSON,
// then DecodeJSONVectors at that GOMAXPROCS (one decoder at 1, split
// decoders above), then Prepare and the ladder's CELF and streaming Runs,
// plus the bytes of the decoded Prepare's snapshot.
func wireAnswers(s answerSet, t *testing.T, label string, ds *dataset.Dataset, tau float64) {
	var body bytes.Buffer
	if err := par.WriteJSON(&body, ds.Instance); err != nil {
		t.Fatal(err)
	}
	total := ds.Instance.TotalCost()
	for _, procs := range answerProcs {
		gomaxprocs.Set(t, procs)
		inst, _, err := par.DecodeJSONVectors(body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(context.Background(), &dataset.Dataset{Instance: inst}, PrepareOptions{Tau: tau, InstanceDigest: label})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := EncodeSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		s.put(t, fmt.Sprintf("%s tau=%g snapshot bytes procs=%d", label, tau, procs), hex.EncodeToString(sum[:]))
		for _, f := range answerLadder {
			s.run(t, p, fmt.Sprintf("%s tau=%g celf rung=%g procs=%d", label, tau, f, procs), f*total, AlgoCELF)
			s.run(t, p, fmt.Sprintf("%s tau=%g streaming rung=%g procs=%d", label, tau, f, procs), f*total, AlgoStreaming)
		}
	}
}

// TestAnswers checks this build's answers against the ledger. The tier-1
// set runs P-1K (built in memory at τ 0, 0.4 and 0.75, and wire-decoded at
// τ 0.4) in a few seconds; -answers.full adds the benchmarks' own
// 5000-photo Runs. Without -answers.full, only the cases it ran are
// compared, and -update keeps the file's other cases.
func TestAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("generates public-shape datasets")
	}
	got := answerSet{}
	p1k := publicAnswerDataset(t, dataset.PublicSpecs(1)[0])
	for _, tau := range []float64{0, 0.4, 0.75} {
		ladderAnswers(got, t, "P-1K", p1k, tau)
	}
	churnAnswers(got, t, "P-1K", p1k, 0.4, 1, 0)
	snapshotAnswers(got, t, "P-1K", p1k, 0.4)
	wireAnswers(got, t, "P-1K wire", p1k, 0.4)
	if *answersFull {
		// The engine_sweep and engine_churn input at perfbench seed 1.
		spec := dataset.PublicSpecs(0.05)[4]
		spec.Seed = 1*7919 + 1000 + 1
		engine := publicAnswerDataset(t, spec)
		ladderAnswers(got, t, "P-100K×0.05", engine, 0.4)
		churnAnswers(got, t, "P-100K×0.05", engine, 0.4, 1, 40)
	}

	want := answerSet{}
	data, err := os.ReadFile(answersFile)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil && !(*updateAnswers && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *updateAnswers {
		if *answersFull {
			want = answerSet{}
		}
		for k, v := range got {
			want[k] = v
		}
		out, err := json.MarshalIndent(want, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(answersFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(want), answersFile)
		return
	}
	var moved []string
	for k, v := range got {
		if w, ok := want[k]; !ok {
			moved = append(moved, k+": not in the ledger")
		} else if w != v {
			moved = append(moved, k+": hash moved")
		}
	}
	if *answersFull {
		for k := range want {
			if _, ok := got[k]; !ok {
				moved = append(moved, k+": in the ledger but not run")
			}
		}
	}
	slices.Sort(moved)
	for _, m := range moved {
		t.Error(m)
	}
	if len(moved) > 0 {
		t.Logf("%d of %d cases differ from %s; rewrite it with -update -answers.full only if the change is meant to move answers", len(moved), len(got), answersFile)
	}
}
