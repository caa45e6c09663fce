package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// Span names. Each is the public function of one module, timed from outside
// by the benchmark; spans inside the program are not part of this benchmark.
const (
	spanOp          = "op"                    // one op, the root of its spans
	spanDecode      = "par.decode"            // par.ReadJSONVectors with the sha256 tee
	spanFinalize    = "par.finalize"          // the budget Finalize
	spanFingerprint = "phocus.fingerprint"    // phocus.FingerprintFor
	spanGetOrPrep   = "phocus.get_or_prepare" // PreparedCache.GetOrPrepare; self time is the probe
	spanLoad        = "phocus.snapshot_load"  // SnapshotStore.Load
	spanWarmFill    = "phocus.warm_fill"      // SnapshotStore.WarmFill
	spanPrepare     = "phocus.prepare"        // phocus.Prepare
	spanSparsify    = "sparsify"              // PrepTime − KernelBuildTime, inside Prepare
	spanKernel      = "par.kernel_compile"    // KernelBuildTime, inside Prepare
	spanSave        = "phocus.snapshot_save"  // SnapshotStore.Save
	spanRun         = "phocus.run"            // Prepared.Run; self time is rescore and bound
	spanSolve       = "celf.solve"            // Result.SolveTime, inside Run
	spanDelta       = "phocus.delta_apply"    // Prepared.ApplyDelta
	spanEncode      = "serve.encode"          // JSON encode of the response
)

// span is one timed call. Times are offsets from the tracer's start.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"` // -1 for roots
	Op      int           `json:"op"`     // op ID; -1 for set-up work
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Alloc   uint64        `json:"alloc_bytes,omitempty"` // heap bytes allocated, when measured
	Mallocs uint64        `json:"mallocs,omitempty"`     // heap objects allocated, when measured
	// Attrs carries the span's work counts (bytes, gain evals, ...).
	Attrs map[string]float64 `json:"attrs,omitempty"`
	mem   bool               // Alloc/Mallocs hold the opening MemStats until end
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them at the end of a run.
type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID. withMem snapshots runtime.MemStats
// so end can record the span's allocations (ReadMemStats stops the world
// briefly; that cost is part of the reported tracing overhead).
func (t *tracer) begin(name string, parent, op int, withMem bool) int {
	id := len(t.spans)
	s := span{ID: id, Parent: parent, Op: op, Name: name}
	if withMem {
		runtime.ReadMemStats(&t.ms)
		s.Alloc, s.Mallocs, s.mem = t.ms.TotalAlloc, t.ms.Mallocs, true
	}
	s.Start = time.Since(t.t0)
	t.spans = append(t.spans, s)
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	end := time.Since(t.t0)
	s := &t.spans[id]
	s.End = end
	if s.mem {
		runtime.ReadMemStats(&t.ms)
		s.Alloc, s.Mallocs, s.mem = t.ms.TotalAlloc-s.Alloc, t.ms.Mallocs-s.Mallocs, false
	}
}

// set records a work count on span id.
func (t *tracer) set(id int, key string, v float64) {
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// add records a span the program timed itself (Prepare's kernel build,
// Run's solve), placed inside parent at the given offset from its start.
func (t *tracer) add(name string, parent int, offset, d time.Duration) int {
	p := t.spans[parent]
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name,
		Start: p.Start + offset, End: p.Start + offset + d})
	return id
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// named returns the spans called name; opsOnly keeps those of timed ops.
func (t *tracer) named(name string, opsOnly bool) []*span {
	var out []*span
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (!opsOnly || s.Op >= 0) {
			out = append(out, s)
		}
	}
	return out
}

// durMS returns the durations of spans in milliseconds.
func durMS(ss []*span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

// attr collects one attribute over spans.
func attr(ss []*span, key string) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if v, ok := s.Attrs[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

// selfTimes returns each span's duration minus its direct children's, by
// span ID. Children of one span never overlap: the benchmark calls them in
// sequence, and the program-timed children are placed back to back.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].dur()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// layerReport prints, over the timed ops, each span name's total self time
// and its share of the ops' wall time (the "op" row is the time no span
// covers), and returns the per-op uncovered times in milliseconds and the
// name with the largest self time.
func (t *tracer) layerReport(w io.Writer) (uncovered []float64, top string) {
	self := t.selfTimes()
	total := map[string]time.Duration{}
	var wall time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.Op < 0 {
			continue
		}
		total[s.Name] += self[i]
		if s.Name == spanOp {
			wall += s.dur()
			uncovered = append(uncovered, ms(self[i]))
		}
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return total[names[a]] > total[names[b]] })
	fmt.Fprintf(w, "self time over %d timed ops (%.1f ms of wall time):\n", len(uncovered), ms(wall))
	for _, n := range names {
		label := n
		if n == spanOp {
			label = "(no span)"
		} else if top == "" {
			top = n
		}
		fmt.Fprintf(w, "  %-24s %10.2f ms  %5.1f%%\n", label, ms(total[n]), 100*float64(total[n])/float64(max(wall, 1)))
	}
	return uncovered, top
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
