// Delta maintenance: the churn path of the staged engine. A Delta describes
// a batch of archive changes — photos added (with explicit similarity rows),
// photos removed, new pre-defined subsets — and Prepared.ApplyDelta folds it
// into a live Prepared in place: the finalized base instance, the
// τ-sparsified view and both compiled gain kernels are updated incrementally
// instead of re-running the Data Representation stage from scratch.
//
// Semantics. Removed photos become "husks": they keep their photo ID, their
// member slots and their byte cost, but their relevance drops to 0 and every
// off-diagonal similarity involving them is masked, so they can never again
// cover anything or be worth selecting. Added photos get the next dense IDs
// (n, n+1, ... for a batch against an n-photo instance). An existing photo
// can only gain new memberships through NewSubsets — joining a pre-existing
// subset would break the kernel overlay's occurrence-order invariant — while
// added photos may join existing subsets and new subsets alike.
//
// Similarities arrive IN the delta: the caller supplies each new member's
// similarity row explicitly (DeltaNeighbor), so ApplyDelta computes no
// similarity function at all. This is what makes delta application cheap
// relative to a cold Prepare, whose sparsification and kernel compile
// evaluate O(Σ k²) similarity calls over dense subsets.
//
// Equivalence. MergeDelta applies the same resolved plan, with the same
// float operations in the same order, to a standalone instance, overlaying
// its similarities with par.DeltaSim where the live path overlays its
// kernels. A cold Prepare over the merged instance therefore produces
// bit-identical similarity values, relevance vectors and kernel entries —
// and hence identical Run selections — to the incrementally maintained
// Prepared, which is the differential property the delta tests pin.
//
// Relevance semantics. DeltaMembership.Relevance values are raw mass on the
// same scale as the subset's current (normalized) relevance vector: after a
// batch, every touched subset is renormalized to sum 1, so existing live
// members keep their relative proportions and a new member with relevance r
// lands near r/(1+Σr') of the subset's mass.
package phocus

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"phocus/internal/par"
)

// ErrDeltaLSH is returned by ApplyDelta on an LSH-prepared instance: delta
// maintenance needs explicit similarity rows, but LSH preparation derives
// candidates from context vectors the Prepared does not retain.
var ErrDeltaLSH = errors.New("phocus: ApplyDelta does not support LSH-prepared instances")

// ErrEmptyDelta is returned when a Delta contains no operations; applying it
// would evolve the fingerprint (invalidating caches and snapshots) without
// changing anything.
var ErrEmptyDelta = errors.New("phocus: empty delta")

// Delta is one batch of archive churn.
type Delta struct {
	// Add lists new photos; photo i of the batch gets ID n+i against an
	// n-photo instance.
	Add []DeltaPhoto `json:"add,omitempty"`
	// Remove lists photo IDs to retire. Retained (S0) photos cannot be
	// removed.
	Remove []par.PhotoID `json:"remove,omitempty"`
	// NewSubsets appends whole new pre-defined subsets, the only way existing
	// photos gain memberships.
	NewSubsets []DeltaSubset `json:"new_subsets,omitempty"`
}

// DeltaPhoto is one added photo.
type DeltaPhoto struct {
	// Cost is the photo's byte size C(p); must be positive.
	Cost float64 `json:"cost"`
	// Memberships places the photo into pre-existing subsets, in strictly
	// ascending subset order.
	Memberships []DeltaMembership `json:"memberships,omitempty"`
}

// DeltaMembership joins an added photo to one pre-existing subset.
type DeltaMembership struct {
	// Subset indexes Prepared's subset list as of the start of the batch.
	Subset int `json:"subset"`
	// Relevance is the photo's raw relevance mass in the subset (see the
	// package comment for the renormalization contract); must be positive.
	Relevance float64 `json:"relevance"`
	// Neighbors lists the photo's positive contextual similarities to live
	// members of the subset. Pairs omitted here are similarity 0 forever.
	Neighbors []DeltaNeighbor `json:"neighbors,omitempty"`
}

// DeltaNeighbor is one explicit similarity pair of a delta row. The
// referenced photo must resolve to a live member: a husk reference is
// rejected, because a removed member's masked similarities can never come
// back.
type DeltaNeighbor struct {
	Photo par.PhotoID `json:"photo"`
	Sim   float64     `json:"sim"` // in (0, 1]
}

// DeltaSubset is one appended pre-defined subset.
type DeltaSubset struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// Members may mix existing live photos and photos added in this batch
	// (referenced by their final IDs, n+i).
	Members []DeltaSubsetMember `json:"members"`
}

// DeltaSubsetMember is one member of an appended subset. Neighbors reference
// EARLIER members of the same new subset (by photo ID).
type DeltaSubsetMember struct {
	Photo     par.PhotoID     `json:"photo"`
	Relevance float64         `json:"relevance"`
	Neighbors []DeltaNeighbor `json:"neighbors,omitempty"`
}

// Empty reports whether the delta contains no operations.
func (d *Delta) Empty() bool {
	return len(d.Add) == 0 && len(d.Remove) == 0 && len(d.NewSubsets) == 0
}

// Digest returns a deterministic sha256 over the delta's full content; the
// fingerprint evolution chain hashes it together with the pre-delta
// fingerprint.
func (d *Delta) Digest() string {
	h := sha256.New()
	var tmp [8]byte
	u32 := func(v int) { binary.LittleEndian.PutUint32(tmp[:4], uint32(v)); h.Write(tmp[:4]) }
	f64 := func(v float64) { binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v)); h.Write(tmp[:]) }
	nbrs := func(ns []DeltaNeighbor) {
		u32(len(ns))
		for _, nb := range ns {
			u32(int(nb.Photo))
			f64(nb.Sim)
		}
	}
	io.WriteString(h, "phocus/delta-digest/v1\x00")
	u32(len(d.Add))
	for _, ap := range d.Add {
		f64(ap.Cost)
		u32(len(ap.Memberships))
		for _, m := range ap.Memberships {
			u32(m.Subset)
			f64(m.Relevance)
			nbrs(m.Neighbors)
		}
	}
	u32(len(d.Remove))
	for _, p := range d.Remove {
		u32(int(p))
	}
	u32(len(d.NewSubsets))
	for _, ns := range d.NewSubsets {
		u32(len(ns.Name))
		io.WriteString(h, ns.Name)
		f64(ns.Weight)
		u32(len(ns.Members))
		for _, m := range ns.Members {
			u32(int(m.Photo))
			f64(m.Relevance)
			nbrs(m.Neighbors)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DeltaStats reports what one ApplyDelta call did.
type DeltaStats struct {
	// Added / Removed / NewSubsets count the batch's operations.
	Added, Removed, NewSubsets int
	// Compacted reports whether the apply triggered a kernel compaction.
	Compacted bool
	// LiveFraction is the base kernel's live-entry fraction after the apply
	// (1 after a compaction).
	LiveFraction float64
	// OldFingerprint / NewFingerprint are the fingerprints before and after
	// the batch; caches key on them.
	OldFingerprint, NewFingerprint string
	// ApplyTime is the wall-clock cost of the apply (compaction included).
	ApplyTime time.Duration
	// Photos and SizeBytes are the instance's NumPhotos and SizeBytes after.
	Photos    int
	SizeBytes int64
}

// ---------------------------------------------------------------------------
// Resolution: validate a Delta against the current instance and turn photo
// IDs into member indices, producing a plan whose application cannot fail.

type memPlan struct {
	subset int
	mi     int
	rel    float64
	nbrs   []par.Neighbor // resolved member indices, ascending
}

type addPlan struct {
	photo par.PhotoID
	cost  float64
	mems  []memPlan
}

type newMemberPlan struct {
	photo par.PhotoID
	rel   float64
	nbrs  []par.Neighbor
}

type newSubsetPlan struct {
	subset  int
	name    string
	weight  float64
	members []newMemberPlan
}

type removalPlan struct {
	photo par.PhotoID
	occ   []par.Occurrence
}

type deltaPlan struct {
	removals []removalPlan
	adds     []addPlan
	newSubs  []newSubsetPlan
	touched  []int // ascending subset indices needing renormalization
	oldSubs  int   // subset count before the batch
}

func isRemoved(removed []bool, p par.PhotoID) bool {
	return int(p) < len(removed) && removed[p]
}

func removedCount(removed []bool) int {
	n := 0
	for _, r := range removed {
		if r {
			n++
		}
	}
	return n
}

// resolveDelta validates d against inst (which must be finalized) and the
// removed-photo bitmap, and resolves every photo reference to a member
// index. It performs no mutation: any error leaves everything untouched.
func resolveDelta(inst *par.Instance, removed []bool, d *Delta) (*deltaPlan, error) {
	if d.Empty() {
		return nil, ErrEmptyDelta
	}
	nOld := inst.NumPhotos()
	nSub := len(inst.Subsets)
	nTotal := nOld + len(d.Add)
	plan := &deltaPlan{oldSubs: nSub}
	touched := map[int]bool{}

	removing := map[par.PhotoID]bool{}
	for _, p := range d.Remove {
		if int(p) < 0 || int(p) >= nOld {
			return nil, fmt.Errorf("phocus: delta removes unknown photo %d", p)
		}
		if isRemoved(removed, p) {
			return nil, fmt.Errorf("phocus: delta removes photo %d twice (already removed)", p)
		}
		if removing[p] {
			return nil, fmt.Errorf("phocus: delta removes photo %d twice", p)
		}
		if inst.IsRetained(p) {
			return nil, fmt.Errorf("phocus: delta removes retained photo %d", p)
		}
		removing[p] = true
		occ := inst.Occurrences(p)
		plan.removals = append(plan.removals, removalPlan{photo: p, occ: occ})
		for _, oc := range occ {
			touched[oc.Subset] = true
		}
	}

	dead := func(p par.PhotoID) bool {
		return int(p) < nOld && (isRemoved(removed, p) || removing[p])
	}

	// resolveNbrs maps one neighbor list through lookup, enforcing liveness,
	// similarity range and uniqueness, and returns it sorted by member index
	// (the ascending-entry invariant of both DeltaSim and the kernel overlay).
	resolveNbrs := func(where string, raw []DeltaNeighbor, lookup func(par.PhotoID) (int, bool)) ([]par.Neighbor, error) {
		if len(raw) == 0 {
			return nil, nil
		}
		out := make([]par.Neighbor, 0, len(raw))
		seen := make(map[int]bool, len(raw))
		for _, nb := range raw {
			if !(nb.Sim > 0 && nb.Sim <= 1) {
				return nil, fmt.Errorf("phocus: %s: neighbor similarity %g out of (0,1]", where, nb.Sim)
			}
			if int(nb.Photo) < 0 || int(nb.Photo) >= nTotal {
				return nil, fmt.Errorf("phocus: %s: neighbor references unknown photo %d", where, nb.Photo)
			}
			if dead(nb.Photo) {
				return nil, fmt.Errorf("phocus: %s: neighbor references removed photo %d", where, nb.Photo)
			}
			j, ok := lookup(nb.Photo)
			if !ok {
				return nil, fmt.Errorf("phocus: %s: neighbor photo %d is not an earlier member", where, nb.Photo)
			}
			if seen[j] {
				return nil, fmt.Errorf("phocus: %s: duplicate neighbor photo %d", where, nb.Photo)
			}
			seen[j] = true
			out = append(out, par.Neighbor{Index: j, Sim: nb.Sim})
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
		return out, nil
	}

	// batchMi[qi] maps photos appended to existing subset qi this batch to
	// their member indices.
	batchMi := map[int]map[par.PhotoID]int{}
	memberIn := func(qi int, p par.PhotoID) (int, bool) {
		if m := batchMi[qi]; m != nil {
			if mi, ok := m[p]; ok {
				return mi, true
			}
		}
		if int(p) < nOld {
			for _, oc := range inst.Occurrences(p) {
				if oc.Subset == qi {
					return oc.Index, true
				}
			}
		}
		return 0, false
	}

	for i, ap := range d.Add {
		photo := par.PhotoID(nOld + i)
		where := fmt.Sprintf("added photo %d", photo)
		if !(ap.Cost > 0) || math.IsInf(ap.Cost, 0) {
			return nil, fmt.Errorf("phocus: %s: cost %g must be positive and finite", where, ap.Cost)
		}
		a := addPlan{photo: photo, cost: ap.Cost}
		lastQ := -1
		for _, m := range ap.Memberships {
			if m.Subset < 0 || m.Subset >= nSub {
				return nil, fmt.Errorf("phocus: %s: membership references unknown subset %d (new subsets cannot be joined via memberships)", where, m.Subset)
			}
			if m.Subset <= lastQ {
				return nil, fmt.Errorf("phocus: %s: memberships must be in strictly ascending subset order", where)
			}
			lastQ = m.Subset
			if !(m.Relevance > 0) || math.IsInf(m.Relevance, 0) {
				return nil, fmt.Errorf("phocus: %s: relevance %g must be positive and finite", where, m.Relevance)
			}
			qi := m.Subset
			nbrs, err := resolveNbrs(fmt.Sprintf("%s, subset %d", where, qi), m.Neighbors,
				func(p par.PhotoID) (int, bool) { return memberIn(qi, p) })
			if err != nil {
				return nil, err
			}
			mi := len(inst.Subsets[qi].Members)
			if bm := batchMi[qi]; bm != nil {
				mi += len(bm)
			} else {
				batchMi[qi] = map[par.PhotoID]int{}
			}
			batchMi[qi][photo] = mi
			touched[qi] = true
			a.mems = append(a.mems, memPlan{subset: qi, mi: mi, rel: m.Relevance, nbrs: nbrs})
		}
		plan.adds = append(plan.adds, a)
	}

	for k, ns := range d.NewSubsets {
		qi := nSub + k
		where := fmt.Sprintf("new subset %d (%q)", qi, ns.Name)
		if !(ns.Weight > 0) || math.IsInf(ns.Weight, 0) {
			return nil, fmt.Errorf("phocus: %s: weight %g must be positive and finite", where, ns.Weight)
		}
		if len(ns.Members) == 0 {
			return nil, fmt.Errorf("phocus: %s: no members", where)
		}
		posOf := make(map[par.PhotoID]int, len(ns.Members))
		sp := newSubsetPlan{subset: qi, name: ns.Name, weight: ns.Weight}
		for _, m := range ns.Members {
			if int(m.Photo) < 0 || int(m.Photo) >= nTotal {
				return nil, fmt.Errorf("phocus: %s: unknown member photo %d", where, m.Photo)
			}
			if dead(m.Photo) {
				return nil, fmt.Errorf("phocus: %s: member photo %d is removed", where, m.Photo)
			}
			if _, dup := posOf[m.Photo]; dup {
				return nil, fmt.Errorf("phocus: %s: duplicate member photo %d", where, m.Photo)
			}
			if !(m.Relevance > 0) || math.IsInf(m.Relevance, 0) {
				return nil, fmt.Errorf("phocus: %s: relevance %g must be positive and finite", where, m.Relevance)
			}
			nbrs, err := resolveNbrs(fmt.Sprintf("%s, member %d", where, m.Photo), m.Neighbors,
				func(p par.PhotoID) (int, bool) { j, ok := posOf[p]; return j, ok })
			if err != nil {
				return nil, err
			}
			posOf[m.Photo] = len(sp.members)
			sp.members = append(sp.members, newMemberPlan{photo: m.Photo, rel: m.Relevance, nbrs: nbrs})
		}
		plan.newSubs = append(plan.newSubs, sp)
		touched[qi] = true
	}

	// A touched pre-existing subset must keep positive relevance mass: at
	// least one surviving member with positive relevance, or a member added
	// this batch. The check is exact (no float summation), so a plan that
	// passes it cannot fail renormalization later.
	for qi := 0; qi < nSub; qi++ {
		if !touched[qi] {
			continue
		}
		if m := batchMi[qi]; len(m) > 0 {
			continue
		}
		q := &inst.Subsets[qi]
		alive := false
		for mi, p := range q.Members {
			if !dead(p) && q.Relevance[mi] > 0 {
				alive = true
				break
			}
		}
		if !alive {
			return nil, fmt.Errorf("phocus: delta leaves subset %d with no live relevance mass", qi)
		}
	}

	plan.touched = make([]int, 0, len(touched))
	for qi := range touched {
		plan.touched = append(plan.touched, qi)
	}
	sort.Ints(plan.touched)
	return plan, nil
}

// ---------------------------------------------------------------------------
// Application: the shared instance-mutation core. ApplyDelta and MergeDelta
// both run exactly this code over the instance, so the relevance vectors
// they produce are bit-identical; the similarities change in the kernels on
// the live path and in DeltaSim overlays (mergeSims) on the cold one.

// cowForPlan gives inst owned copies of the slices the plan will mutate: the
// Cost vector, the Subsets slice header, and the Members/Relevance slices of
// every touched pre-existing subset. Similarity structures are not copied:
// MergeDelta wraps them without mutating them, and the live path changes
// only its kernels, which the subsets' views read.
func cowForPlan(inst *par.Instance, plan *deltaPlan) {
	inst.Cost = append([]float64(nil), inst.Cost...)
	inst.Subsets = append([]par.Subset(nil), inst.Subsets...)
	for _, qi := range plan.touched {
		if qi >= plan.oldSubs {
			continue // appended subsets are built fresh
		}
		q := &inst.Subsets[qi]
		q.Members = append([]par.PhotoID(nil), q.Members...)
		q.Relevance = append([]float64(nil), q.Relevance...)
	}
}

// renormalize rescales rel to sum 1. resolveDelta guarantees positive mass,
// so an error here indicates an engine bug, not bad input.
func renormalize(rel []float64) error {
	var sum float64
	for _, r := range rel {
		sum += r
	}
	if !(sum > 0) || math.IsInf(sum, 0) {
		return errors.New("relevance mass is not positive")
	}
	for i := range rel {
		rel[i] /= sum
	}
	return nil
}

// applyPlan folds the resolved plan into inst: husk the removals, append the
// added members and subsets, and renormalize every touched relevance
// vector. It leaves every Sim as it was (appended subsets get none) and
// does not finalize: the caller brings the similarities up to date first.
// inst must already be copy-on-write prepared via cowForPlan.
func applyPlan(inst *par.Instance, plan *deltaPlan) error {
	for _, rm := range plan.removals {
		for _, oc := range rm.occ {
			inst.Subsets[oc.Subset].Relevance[oc.Index] = 0
		}
	}
	for _, ap := range plan.adds {
		inst.Cost = append(inst.Cost, ap.cost)
		for _, m := range ap.mems {
			q := &inst.Subsets[m.subset]
			q.Members = append(q.Members, ap.photo)
			q.Relevance = append(q.Relevance, m.rel)
		}
	}
	for _, ns := range plan.newSubs {
		members := make([]par.PhotoID, len(ns.members))
		rel := make([]float64, len(ns.members))
		for pos, m := range ns.members {
			members[pos] = m.photo
			rel[pos] = m.rel
		}
		inst.Subsets = append(inst.Subsets, par.Subset{
			Name: ns.name, Weight: ns.weight, Members: members, Relevance: rel,
		})
	}
	for _, qi := range plan.touched {
		if err := renormalize(inst.Subsets[qi].Relevance); err != nil {
			return fmt.Errorf("phocus: subset %d: %w", qi, err)
		}
	}
	return nil
}

// finalizeDelta re-finalizes a delta'd instance with budget = total cost.
func finalizeDelta(inst *par.Instance) error {
	inst.Budget = inst.TotalCost()
	if err := inst.Finalize(); err != nil {
		return fmt.Errorf("phocus: delta finalize: %w", err)
	}
	return nil
}

// mergeSims is MergeDelta's similarity half of the plan: each touched
// pre-existing subset's similarity is wrapped in one fresh par.DeltaSim
// (the input's is never mutated) that masks the removals and appends the
// added members' rows, and each appended subset gets a SparseSim of its
// rows.
func mergeSims(inst *par.Instance, plan *deltaPlan) {
	wrapped := map[int]*par.DeltaSim{}
	wrap := func(qi int) *par.DeltaSim {
		ds := wrapped[qi]
		if ds == nil {
			ds = par.NewDeltaSim(inst.Subsets[qi].Sim)
			wrapped[qi] = ds
			inst.Subsets[qi].Sim = ds
		}
		return ds
	}
	for _, rm := range plan.removals {
		for _, oc := range rm.occ {
			wrap(oc.Subset).MaskMember(oc.Index)
		}
	}
	for _, ap := range plan.adds {
		for _, m := range ap.mems {
			wrap(m.subset).AppendMember(m.nbrs)
		}
	}
	for _, ns := range plan.newSubs {
		ss := par.NewSparseSim(len(ns.members))
		for pos, m := range ns.members {
			for _, nb := range m.nbrs {
				ss.Add(pos, nb.Index, nb.Sim)
			}
		}
		inst.Subsets[ns.subset].Sim = ss
	}
}

// tauFilter keeps the neighbors the τ-sparsified view retains, matching the
// sparsifier's keep predicate (sim ≥ τ; delta sims are always positive).
func tauFilter(nbrs []par.Neighbor, tau float64) []par.Neighbor {
	out := make([]par.Neighbor, 0, len(nbrs))
	for _, nb := range nbrs {
		if nb.Sim >= tau {
			out = append(out, nb)
		}
	}
	return out
}

// deltaFingerprint evolves a prepared fingerprint by one applied delta.
func deltaFingerprint(old string, d *Delta) string {
	h := sha256.New()
	io.WriteString(h, "phocus/delta/v1\x00")
	io.WriteString(h, old)
	io.WriteString(h, d.Digest())
	return hex.EncodeToString(h.Sum(nil))
}

// compactLiveFraction is the live-entry fraction below which ApplyDelta
// compacts the kernels; overlayGrowthDivisor bounds how large the append
// overlay may grow relative to the compiled slabs before compaction.
const (
	compactLiveFraction  = 0.75
	overlayGrowthDivisor = 4
)

// ApplyDelta folds one churn batch into the Prepared in place: the base
// instance, the sparsified subsets and both compiled kernels are updated
// incrementally, the content fingerprint evolves to
// sha256("phocus/delta/v1" ‖ oldFP ‖ digest(delta)), and SizeBytes is
// recomputed. The kernels are the only similarity structures it changes:
// removals tombstone rows and additions append overlay rows, and the
// subsets' Sims are views that read the overlaid kernels. When tombstoned
// entries or the append overlay grow past their thresholds the kernels are
// compacted, restoring the canonical flat layout.
//
// ApplyDelta serializes against Run: it blocks until in-flight runs drain
// and blocks new ones while it mutates. A validation error (wrong photo ID,
// husk neighbor reference, empty delta, ...) leaves the Prepared unchanged.
func (p *Prepared) ApplyDelta(ctx context.Context, d *Delta) (*DeltaStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.opts.UseLSH {
		return nil, ErrDeltaLSH
	}
	start := time.Now()

	// The evolved fingerprint chains from the current one, so force it to
	// exist before mutation.
	oldFP, err := p.fingerprintLocked()
	if err != nil {
		return nil, err
	}

	plan, err := resolveDelta(p.base, p.removed, d)
	if err != nil {
		return nil, err
	}

	// Instance mutation on a copy-on-write view; the plan is fully validated,
	// so a failure from here on is an engine invariant violation.
	newBase := &par.Instance{
		Cost:     p.base.Cost,
		Retained: p.base.Retained,
		Subsets:  p.base.Subsets,
	}
	cowForPlan(newBase, plan)
	if err := applyPlan(newBase, plan); err != nil {
		return nil, err
	}

	// Kernel structural updates mirror the plan entry for entry. Ordering
	// matters twice over: per photo, rows must be appended in ascending
	// subset order (memberships first, new subsets after — new subsets have
	// the highest indices), and W·R rewrites must come after both the
	// renormalization above and the appends below.
	kb := p.base.Kernel()
	var ks *par.Kernel
	if p.solveTmpl != nil {
		ks = p.solveTmpl.Kernel()
	}
	for _, rm := range plan.removals {
		for _, oc := range rm.occ {
			kb.TombstoneRow(oc.Subset, oc.Index)
			if ks != nil {
				ks.TombstoneRow(oc.Subset, oc.Index)
			}
		}
	}
	for _, ap := range plan.adds {
		kb.AppendPhoto()
		if ks != nil {
			ks.AppendPhoto()
		}
		for _, m := range ap.mems {
			kb.AppendMemberRow(m.subset, ap.photo, m.nbrs)
			if ks != nil {
				ks.AppendMemberRow(m.subset, ap.photo, tauFilter(m.nbrs, p.opts.Tau))
			}
		}
	}
	for _, ns := range plan.newSubs {
		kb.AppendSubset()
		if ks != nil {
			ks.AppendSubset()
		}
		for _, m := range ns.members {
			kb.AppendMemberRow(ns.subset, m.photo, m.nbrs)
			if ks != nil {
				ks.AppendMemberRow(ns.subset, m.photo, tauFilter(m.nbrs, p.opts.Tau))
			}
		}
	}
	for _, qi := range plan.touched {
		q := &newBase.Subsets[qi]
		kb.RewriteWR(qi, q.Weight, q.Relevance)
		if ks != nil {
			ks.RewriteWR(qi, q.Weight, q.Relevance)
		}
	}

	// The overlaid kernels now hold the new similarities: point every subset
	// (appended ones included) at them, finalize, and hand the base kernel
	// over so Kernel never recompiles it.
	par.SetKernelSims(newBase.Subsets, kb)
	if err := finalizeDelta(newBase); err != nil {
		return nil, err
	}
	if err := newBase.AttachKernel(kb); err != nil {
		return nil, fmt.Errorf("phocus: delta kernel: %w", err)
	}

	// Sparsified subsets: append the new ones, re-point the shared
	// Members/Relevance slices at the copy-on-write ones, and view the
	// overlaid sparse kernel.
	if p.sparse != nil {
		for _, ns := range plan.newSubs {
			nq := &newBase.Subsets[ns.subset]
			p.sparse = append(p.sparse, par.Subset{Name: nq.Name, Weight: nq.Weight})
		}
		for _, qi := range plan.touched {
			p.sparse[qi].Members = newBase.Subsets[qi].Members
			p.sparse[qi].Relevance = newBase.Subsets[qi].Relevance
		}
		par.SetKernelSims(p.sparse, ks)
	}

	// Commit: swap the instance in, grow the removed bitmap, evolve the
	// fingerprint, drop the trace recorded on the old layout, recount
	// bytes.
	p.base = newBase
	if p.removed == nil {
		p.removed = make([]bool, 0, newBase.NumPhotos())
	}
	for len(p.removed) < newBase.NumPhotos() {
		p.removed = append(p.removed, false)
	}
	for _, rm := range plan.removals {
		p.removed[rm.photo] = true
	}
	p.fp = deltaFingerprint(oldFP, d)
	p.fpErr = nil
	p.trace = nil

	stats := &DeltaStats{
		Added:          len(d.Add),
		Removed:        len(d.Remove),
		NewSubsets:     len(d.NewSubsets),
		OldFingerprint: oldFP,
		NewFingerprint: p.fp,
	}

	overlay := kb.OverlayEntries()
	if kb.LiveFraction() < compactLiveFraction || overlay*overlayGrowthDivisor > kb.Entries()-overlay {
		if err := p.compactLocked(); err != nil {
			return nil, err
		}
		stats.Compacted = true
	} else {
		// The solve template's occurrence index went stale with the appends;
		// re-finalize it so RunInto's ViewInto stamping stays valid.
		if p.sparse != nil {
			sv, err := p.sparseTemplate()
			if err != nil {
				return nil, fmt.Errorf("phocus: delta sparse view: %w", err)
			}
			if err := sv.AttachKernel(ks); err != nil {
				return nil, fmt.Errorf("phocus: delta sparse kernel: %w", err)
			}
			p.solveTmpl = sv
		}
		p.sizeBytes = p.sizeBytesLocked()
	}
	stats.LiveFraction = p.base.Kernel().LiveFraction()
	stats.Photos, stats.SizeBytes = p.base.NumPhotos(), p.sizeBytes
	stats.ApplyTime = time.Since(start)
	return stats, nil
}

// sparseTemplate finalizes a budget-free instance over the sparsified
// subsets, sharing the base's cost vector and retained set.
func (p *Prepared) sparseTemplate() (*par.Instance, error) {
	sv := &par.Instance{
		Cost:     p.base.Cost,
		Retained: p.base.Retained,
		Budget:   p.base.Budget,
		Subsets:  p.sparse,
	}
	return sv, sv.Finalize()
}

// Compact recompiles both gain kernels from their own live entries — one
// linear pass over each overlaid kernel's rows, read through the subsets'
// kernel views — dropping the mutation overlays and restoring the canonical
// flat layout (and canonical snapshot encodability). ApplyDelta calls it
// automatically past the dead-entry/overlay-growth thresholds; callers may
// also force it, e.g. before snapshotting a long-lived session.
func (p *Prepared) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compactLocked()
}

func (p *Prepared) compactLocked() error {
	kt := time.Now()
	// The trace was recorded on the layout being replaced. Drop it rather
	// than rely on the recompiled kernel summing every gain in the same
	// order.
	p.trace = nil
	// A Prepared whose bounded Runs built the true kernel's cover index
	// builds the recompiled kernel's here, inside the compaction it already
	// waits for, rather than on the Runs after it.
	_, swept := p.base.Kernel().CoverBytes()
	kb := par.CompileKernel(p.base)
	if err := p.base.AttachKernel(kb); err != nil {
		return fmt.Errorf("phocus: compact kernel: %w", err)
	}
	par.SetKernelSims(p.base.Subsets, kb)
	if swept {
		kb.Covers()
	}
	if p.sparse != nil {
		sv, err := p.sparseTemplate()
		if err != nil {
			return fmt.Errorf("phocus: compact sparse view: %w", err)
		}
		par.SetKernelSims(p.sparse, sv.Kernel())
		p.solveTmpl = sv
	}
	p.KernelBuildTime += time.Since(kt)
	p.sizeBytes = p.sizeBytesLocked()
	return nil
}

// LiveFraction exposes the base kernel's live-entry fraction (1 when
// canonical); observability exports it per instance.
func (p *Prepared) LiveFraction() float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.base.Kernel().LiveFraction()
}

// MergeDelta applies d to a standalone finalized instance, producing the
// instance a cold re-ingest of the post-churn archive would present: husks
// keep their slots (relevance 0, similarities masked), added photos and
// subsets are appended, touched relevance vectors are renormalized — all
// through exactly the instance-mutation core ApplyDelta runs, so relevance
// vectors match the live path bit for bit. It is the cold reference of the
// delta path: where ApplyDelta overlays its kernels, MergeDelta wraps each
// touched subset's similarity in a par.DeltaSim, and a kernel compiled
// from the result holds exactly the live kernel's entries. The input
// instance is not modified (similarities are wrapped, never mutated); the
// returned instance is finalized with budget = total cost.
//
// removed carries the husk bitmap across chained merges: pass nil for the
// first delta and thread the returned slice through subsequent calls.
func MergeDelta(inst *par.Instance, removed []bool, d *Delta) (*par.Instance, []bool, error) {
	plan, err := resolveDelta(inst, removed, d)
	if err != nil {
		return nil, nil, err
	}
	out := &par.Instance{
		Cost:     inst.Cost,
		Retained: inst.Retained,
		Subsets:  inst.Subsets,
	}
	cowForPlan(out, plan)
	if err := applyPlan(out, plan); err != nil {
		return nil, nil, err
	}
	mergeSims(out, plan)
	if err := finalizeDelta(out); err != nil {
		return nil, nil, err
	}
	nr := make([]bool, out.NumPhotos())
	copy(nr, removed)
	for _, rm := range plan.removals {
		nr[rm.photo] = true
	}
	return out, nr, nil
}
