package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"phocus/internal/dataset"
	"phocus/internal/fleet"
	"phocus/internal/obs"
	"phocus/internal/par"
	"phocus/internal/phocus"
)

// chunkReader returns at most n bytes per Read, as a network read does.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// TestReadAllDigestsAsItArrives: the digest readAll builds chunk by chunk is
// the body's BodyDigest, for the default tenant, a named tenant and an empty
// body, at chunk sizes from 1 byte to the whole body, whatever buffer it
// starts from; and the bytes it returns are the body's.
func TestReadAllDigestsAsItArrives(t *testing.T) {
	body := instanceBody(t, 1e6).Bytes()
	junk := bytes.Repeat([]byte{0xFF}, 2*len(body))
	for _, tenant := range []string{"", fleet.DefaultTenant, "alice"} {
		for _, b := range [][]byte{body, {}} {
			want := phocus.BodyDigest(tenant, b)
			for _, chunk := range []int{1, 7, 64, 4096, len(b) / 3, len(b)} {
				if chunk == 0 {
					continue
				}
				for _, buf := range [][]byte{nil, make([]byte, 0, 5), junk} {
					h := phocus.BodyHash(tenant)
					got, err := readAll(buf[:0], chunkReader{bytes.NewReader(b), chunk}, h)
					name := fmt.Sprintf("tenant %q, %d-byte body, %d-byte chunks, %d-byte buffer", tenant, len(b), chunk, cap(buf))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(got, b) {
						t.Errorf("%s: read %d bytes that differ from the body", name, len(got))
					}
					if d := hex.EncodeToString(h.Sum(nil)); d != want {
						t.Errorf("%s: streamed digest %s, want %s", name, d, want)
					}
				}
			}
		}
	}
}

// TestSolveHitAllocatesNoBody: once a hit has warmed the free list, a cache
// hit reads its ~3 MB body into a reused buffer. With the GC off (allocs
// depend on it otherwise), 50 hits add less than 64 KiB each to TotalAlloc.
func TestSolveHitAllocatesNoBody(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count")
	}
	ds, body := p1kArchive()
	query := "/solve?tau=0.4&budget=" + strconv.FormatFloat(0.1*ds.Instance.TotalCost(), 'f', -1, 64)
	s, h := newTestServer(t, nil)
	hit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, query, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	hit() // the cold Prepare
	hit() // the first hit, which puts its buffer on the free list
	const hits = 50
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if h, m := cacheDelta(s, func() {
		for range hits {
			hit()
		}
	}); h != hits || m != 0 {
		t.Fatalf("%d hits / %d misses, want %d hits", h, m, hits)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / hits; per >= 64<<10 {
		t.Errorf("a hit on a %d-byte body allocated %d bytes, want < 64 KiB", len(body), per)
	}
}

// post POSTs body to url under tenant and decodes a 200 answer into out.
func post(url, tenant string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(fleet.TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// TestBodyBufferReuseKeepsAnswers interleaves hits and misses of 3 tenants
// on 2 P-1K bodies past a 3-entry cache, over HTTP, each tenant on its own
// goroutine. After each request that parsed its body (every miss, and a
// solve without a budget), every buffer on the free list is overwritten with
// 0xFF: a buffer that went back while anything still read it would change
// an answer or a digest. Every answer must equal, selection and score
// bits, a cold Prepare+Run of its body.
func TestBodyBufferReuseKeepsAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares two P-1K archives many times")
	}
	_, body0 := p1kArchive()
	spec := dataset.PublicSpecs(1)[0]
	spec.RetainFrac, spec.Seed = 0.02, spec.Seed+1
	ds1, err := dataset.GeneratePublic(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := par.WriteJSON(&buf, ds1.Instance); err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{body0, buf.Bytes()}

	// The reference: a cold Prepare+Run of each body at each rung, where ""
	// is the body's own budget.
	rungs := []string{"", "0.05", "0.15", "0.30"}
	type answer struct {
		retain []par.PhotoID
		score  uint64
	}
	want := make([][]answer, len(bodies))
	budgets := make([][]float64, len(bodies))
	for b, body := range bodies {
		inst, _, err := par.DecodeJSONVectors(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, rung := range rungs {
			budget := inst.Budget
			if rung != "" {
				frac, _ := strconv.ParseFloat(rung, 64)
				budget = frac * inst.TotalCost()
			}
			prep, err := phocus.Prepare(context.Background(), &dataset.Dataset{Instance: inst}, phocus.PrepareOptions{Tau: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := prep.Run(context.Background(), phocus.RunOptions{Budget: budget})
			if err != nil {
				t.Fatal(err)
			}
			want[b] = append(want[b], answer{res.Solution.Photos, math.Float64bits(res.Solution.Score)})
			budgets[b] = append(budgets[b], budget)
		}
	}

	s, srv := jobsTestServer(t, serverConfig{JobWorkers: 2, CacheEntries: 3, CacheBytes: 1 << 30})
	scribble := func() {
		var held [][]byte
		for b := s.bufs.get(); b != nil; b = s.bufs.get() {
			full := b[:cap(b)]
			for i := range full {
				full[i] = 0xFF
			}
			held = append(held, b)
		}
		for _, b := range held {
			s.bufs.put(b)
		}
	}
	var wg sync.WaitGroup
	for tn := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("reuse-%d", tn)
			// Each tenant switches bodies every three solves: a switch
			// misses and evicts, and the repeats hit.
			for op := range 12 {
				b := (op/3 + tn) % len(bodies)
				r := (op + tn) % len(rungs)
				query := "/solve?tau=0.4"
				if rungs[r] != "" {
					query += "&budget=" + strconv.FormatFloat(budgets[b][r], 'f', -1, 64)
				}
				var got solveResponse
				if err := post(srv.URL+query, tenant, bodies[b], &got); err != nil {
					t.Errorf("%s op %d: %v", tenant, op, err)
					return
				}
				if w := want[b][r]; fmt.Sprint(got.Retain) != fmt.Sprint(w.retain) || math.Float64bits(got.Score) != w.score {
					t.Errorf("%s op %d, body %d at rung %q: score %v, retain %d photos; want the cold %v, %d photos",
						tenant, op, b, rungs[r], got.Score, len(got.Retain), math.Float64frombits(w.score), len(w.retain))
				}
				tr, ok := s.trace.Get(got.RequestID)
				if !ok {
					t.Errorf("%s op %d: no trace", tenant, op)
					continue
				}
				for _, sp := range tr.Spans {
					if sp.Name == "decode" && sp.Attrs["parsed"] == "true" {
						scribble()
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	st := s.pipe.Cache.Stats()
	if st.Hits == 0 || st.Misses < 4 {
		t.Errorf("%d hits / %d misses: the interleaving needs both", st.Hits, st.Misses)
	}
	t.Logf("%d hits, %d misses", st.Hits, st.Misses)
}

// panicOnErr is a request context whose Err panics. Prepare checks its
// context first thing, so a cold solve under it panics inside Prepare,
// after the body was parsed.
type panicOnErr struct{ context.Context }

func (panicOnErr) Err() error { panic("prepare panicked") }

// TestSolveDecodeRecyclesBody: the buffer a /solve body was read into goes
// back to the free list once Solve returns, on a miss (the body parsed into
// a cold Prepare), a hit and a 400 parse error alike; after a Prepare that
// panicked it does not, since the state it left is unknown.
func TestSolveDecodeRecyclesBody(t *testing.T) {
	body := instanceBody(t, 2).Bytes()
	s, h := newTestServer(t, nil)
	for s.bufs.get() != nil {
		// Empty the free list: each case below puts its own buffer on it.
	}
	// solve posts payload with buf alone on the free list, large enough
	// that readBody reads into it, and reports whether buf is back on the
	// list afterwards.
	solve := func(name, tenant string, payload []byte, want int) bool {
		t.Helper()
		buf := make([]byte, 0, 2*len(body))
		s.bufs.put(buf)
		req := httptest.NewRequest(http.MethodPost, "/solve?budget=2", bytes.NewReader(payload))
		req.Header.Set(fleet.TenantHeader, tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("%s: status %d, want %d: %s", name, rec.Code, want, rec.Body.String())
		}
		back := s.bufs.get()
		return back != nil && unsafe.SliceData(back[:1]) == unsafe.SliceData(buf[:1])
	}
	var hits, misses int64
	for _, tc := range []struct {
		name    string
		payload []byte
		status  int
		hit     bool
	}{
		{"miss", body, http.StatusOK, false},
		{"hit", body, http.StatusOK, true},
		{"parse error", []byte(`{"costs":[1],"budget":1,"subsets":[{]}`), http.StatusBadRequest, false},
	} {
		var back bool
		h, m := cacheDelta(s, func() { back = solve(tc.name, "", tc.payload, tc.status) })
		hits, misses = hits+h, misses+m
		if !back {
			t.Errorf("%s: the body's buffer is not back on the free list", tc.name)
		}
		if tc.hit && h != 1 || !tc.hit && m != 1 {
			t.Errorf("%s: %d hits / %d misses", tc.name, h, m)
		}
	}

	// A cold solve whose Prepare panics: the handler is called directly,
	// under the panicking context, so the panic reaches this goroutine.
	buf := make([]byte, 0, 2*len(body))
	s.bufs.put(buf)
	func() {
		defer func() {
			if r := recover(); r != "prepare panicked" {
				t.Fatalf("recovered %v, want Prepare's panic", r)
			}
			if stack := string(debug.Stack()); !strings.Contains(stack, "phocus.Prepare(") {
				t.Fatalf("the panic did not come from Prepare:\n%s", stack)
			}
		}()
		req := httptest.NewRequest(http.MethodPost, "/solve?budget=2", bytes.NewReader(body))
		req.Header.Set(fleet.TenantHeader, "panics")
		ctx := obs.WithLogger(req.Context(), s.logger)
		s.handleSolve(httptest.NewRecorder(), req.WithContext(panicOnErr{ctx}))
	}()
	if back := s.bufs.get(); back != nil && unsafe.SliceData(back[:1]) == unsafe.SliceData(buf[:1]) {
		t.Error("the buffer of a solve whose Prepare panicked went back to the free list")
	}
}
