package par

import "testing"

// The compile and threshold differential (compile_diff_test.go) and the
// wire-decode tests (fuzz_test.go) run in package par_test, so they can
// build their inputs with the packages that import par; these are the
// unexported pieces they hold to each other.

// CompileKernelRef is the sequential per-row reference compile.
func CompileKernelRef(inst *Instance) *Kernel { return compileKernelRef(inst) }

// ThresholdRef is the sequential reference τ-sparsification.
func ThresholdRef(k *Kernel, tau float64) (*Kernel, int, int) { return thresholdRef(k, tau) }

// ThresholdRuns is the number of runs Threshold splits k into at GOMAXPROCS
// workers.
func (k *Kernel) ThresholdRuns(workers int) int { return len(k.entryRuns(workers)) - 1 }

// SameSlabs fails t unless got's slabs are == to want's.
func SameSlabs(t testing.TB, label string, want, got *Kernel) { sameSlabs(t, label, want, got) }

// SplitStats counts the split decoders one decode ran and those whose
// subsets it kept; all were kept when the two are equal.
type SplitStats struct{ Ran, Verified int }

// DecodeJSONVectorsSplit is DecodeJSONVectors splitting the subsets array
// over up to splits decoders, with no size floor (splits ≤ 1: serially).
// stats, if not nil, receives the decode's split counts.
func DecodeJSONVectorsSplit(data []byte, splits int, stats *SplitStats) (*Instance, [][][]float64, error) {
	d := &jsonDecoder{data: data, splits: splits}
	if stats != nil {
		*stats = SplitStats{}
		d.onSplit = func(ran, kept int) { stats.Ran += ran; stats.Verified += kept }
	}
	return decodeJSONVectors(d)
}
