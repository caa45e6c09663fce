// Package compress implements the extension sketched in the paper's
// conclusions (Section 6): instead of the binary keep/archive decision,
// photos may also be KEPT COMPRESSED — sacrificing quality to gain space.
// The paper conjectures that "our model can already capture this problem",
// and it does: every photo gets lossy variants that act as additional
// coverage providers. A variant of photo p costs CostFactor·C(p) and covers
// any photo x of a shared subset with similarity Quality·SIM(q, p, x). The
// variant's own relevance is 0 — it never needs covering, it only provides
// coverage — which keeps the expanded objective monotone and submodular, so
// every solver in this repository works on expanded instances unchanged.
//
// Selecting both a photo and its variant is never strictly better than the
// photo alone (the variant's coverage is pointwise dominated), so greedy
// solvers do not waste budget on redundant variants; Interpret resolves the
// rare ties in favour of the best-quality selected variant.
package compress

import (
	"fmt"

	"phocus/internal/par"
)

// Level is one compression setting.
type Level struct {
	// Name labels the level ("web", "thumbnail", ...).
	Name string
	// CostFactor scales the photo's storage cost, in (0, 1).
	CostFactor float64
	// Quality scales the photo's similarity to every other photo (its
	// fidelity as a coverage provider), in (0, 1).
	Quality float64
}

// DefaultLevels is a reasonable two-level ladder: a strong web-quality
// compression and an aggressive thumbnail.
func DefaultLevels() []Level {
	return []Level{
		{Name: "web", CostFactor: 0.35, Quality: 0.92},
		{Name: "thumb", CostFactor: 0.08, Quality: 0.65},
	}
}

// Expanded couples the expanded instance with the bookkeeping needed to
// interpret its solutions.
type Expanded struct {
	Instance *par.Instance
	// levels[i] is the compression level of variant photo (origPhotos+i·n);
	// the first origPhotos IDs are the original photos.
	levels []Level
	orig   int
}

// Expand builds the variant-expanded instance. Retained photos (S0) keep
// their full-quality copies retained; variants are added only for
// non-retained photos (policy retention means the original must stay).
func Expand(inst *par.Instance, levels []Level) (*Expanded, error) {
	for _, l := range levels {
		if l.CostFactor <= 0 || l.CostFactor >= 1 {
			return nil, fmt.Errorf("compress: level %q cost factor %g outside (0,1)", l.Name, l.CostFactor)
		}
		if l.Quality <= 0 || l.Quality >= 1 {
			return nil, fmt.Errorf("compress: level %q quality %g outside (0,1)", l.Name, l.Quality)
		}
	}
	n := inst.NumPhotos()
	out := &par.Instance{
		Cost:     make([]float64, n*(1+len(levels))),
		Retained: inst.Retained,
		Budget:   inst.Budget,
	}
	copy(out.Cost, inst.Cost)
	for li, l := range levels {
		for p := 0; p < n; p++ {
			out.Cost[(li+1)*n+p] = l.CostFactor * inst.Cost[p]
		}
	}
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		k := len(q.Members)
		members := make([]par.PhotoID, 0, k*(1+len(levels)))
		rel := make([]float64, 0, k*(1+len(levels)))
		members = append(members, q.Members...)
		rel = append(rel, q.Relevance...)
		for li := range levels {
			for _, p := range q.Members {
				members = append(members, par.PhotoID((li+1)*n+int(p)))
				rel = append(rel, 0) // variants provide coverage, never need it
			}
		}
		out.Subsets = append(out.Subsets, par.Subset{
			Name:      q.Name,
			Weight:    q.Weight,
			Members:   members,
			Relevance: rel,
			Sim:       variantSim{orig: q.Sim, k: k, levels: levels},
		})
	}
	if err := out.Finalize(); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	return &Expanded{Instance: out, levels: levels, orig: n}, nil
}

// variantSim extends a subset similarity over variant members. Member index
// i corresponds to variant block i/k (block 0 = originals) of original
// member i%k. The similarity of two members is the original members'
// similarity scaled by both variants' qualities — except identical member
// indices, whose similarity is 1 by the model's definition.
type variantSim struct {
	orig   par.Similarity
	k      int
	levels []Level
}

// Len implements par.Similarity.
func (v variantSim) Len() int { return v.k * (1 + len(v.levels)) }

// quality returns the fidelity of the block a member index lives in.
func (v variantSim) quality(i int) float64 {
	block := i / v.k
	if block == 0 {
		return 1
	}
	return v.levels[block-1].Quality
}

// Sim implements par.Similarity. The product of the two qualities is
// taken in member order, smaller index first, so Sim(i, j) and Sim(j, i)
// are the same float64, as par.Similarity requires.
func (v variantSim) Sim(i, j int) float64 {
	if i == j {
		return 1
	}
	if i > j {
		i, j = j, i
	}
	base := v.orig.Sim(i%v.k, j%v.k)
	if i%v.k == j%v.k {
		// A variant versus another variant (or the original) of the SAME
		// photo: the underlying similarity is 1, degraded by the lossier
		// side's fidelity.
		q := v.quality(i)
		if qj := v.quality(j); qj < q {
			q = qj
		}
		return q
	}
	return base * v.quality(i) * v.quality(j)
}

// Choice is the interpreted decision for one original photo.
type Choice struct {
	Photo par.PhotoID
	// Level is nil for a full-quality keep, non-nil for a compressed keep.
	Level *Level
}

// Plan is the interpreted solution of an expanded instance.
type Plan struct {
	// Keep lists photos kept (full or compressed), best variant per photo.
	Keep []Choice
	// Archive lists photos not kept in any form.
	Archive []par.PhotoID
	// Cost is the total storage of the kept variants.
	Cost float64
}

// Interpret maps a solution of the expanded instance back to per-photo
// decisions, keeping only the best-quality selected variant of each photo.
func (ex *Expanded) Interpret(sol par.Solution) Plan {
	best := make(map[par.PhotoID]int) // photo -> best block+1 (0 = unseen)
	for _, v := range sol.Photos {
		p := par.PhotoID(int(v) % ex.orig)
		block := int(v) / ex.orig
		cur, seen := best[p]
		if !seen || blockQuality(ex.levels, block) > blockQuality(ex.levels, cur-1) {
			best[p] = block + 1
		}
	}
	var plan Plan
	for p := 0; p < ex.orig; p++ {
		blockPlus, seen := best[par.PhotoID(p)]
		if !seen {
			plan.Archive = append(plan.Archive, par.PhotoID(p))
			continue
		}
		block := blockPlus - 1
		ch := Choice{Photo: par.PhotoID(p)}
		cost := ex.Instance.Cost[p]
		if block > 0 {
			ch.Level = &ex.levels[block-1]
			cost = ex.Instance.Cost[block*ex.orig+p]
		}
		plan.Keep = append(plan.Keep, ch)
		plan.Cost += cost
	}
	return plan
}

func blockQuality(levels []Level, block int) float64 {
	if block < 0 {
		return -1
	}
	if block == 0 {
		return 1
	}
	return levels[block-1].Quality
}
