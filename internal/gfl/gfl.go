// Package gfl implements the Generalized Facility Location formulation of
// PAR from Section 4.3 of the paper (Figure 2), which the sparsification
// error bound (Theorem 4.8) is stated over.
//
// A GFL instance is a weighted bipartite graph: the left nodes T_L are the
// photos (node weight = storage cost), the right nodes T_R are the
// (subset, member) pairs (node weight = W(q)·R(q,p)), and an edge connects
// photo p1 to node (q, p2) with weight SIM(q, p1, p2) whenever both photos
// belong to q. The objective of a left subset S is
//
//	F(S) = Σ_{(q,p) ∈ T_R} w_R(q,p) · maxEdge(S, (q,p))
//
// subject to Σ_{p∈S} w_L(p) ≤ B. With all node weights 1 this is the
// classic (budgeted) Facility Location problem. FromPAR converts a PAR
// instance; Value(S) equals the PAR objective G(S) exactly, which the tests
// verify — it is the equivalence the paper's Example 4.7 asserts.
package gfl

import (
	"phocus/internal/par"
)

// RightNode is one element of T_R: the member Index-th photo of subset Q,
// carrying weight W(q)·R(q,p).
type RightNode struct {
	Subset int
	Index  int
	Photo  par.PhotoID // the member photo p of the pair (q, p)
	Weight float64
}

// Edge connects a left photo to a right node with the similarity weight.
type Edge struct {
	Photo  par.PhotoID
	Right  int // index into Graph.Right
	Weight float64
}

// Graph is the bipartite GFL instance.
type Graph struct {
	// LeftWeights holds w_L(p) = C(p) per photo.
	LeftWeights []float64
	// Right lists T_R.
	Right []RightNode
	// EdgesByPhoto indexes, for each photo, its incident edges.
	EdgesByPhoto [][]Edge
	// Budget bounds Σ w_L over the chosen left nodes.
	Budget float64
}

// FromPAR builds the GFL formulation of a finalized PAR instance. Only
// edges of positive weight are materialized (zero-weight edges never affect
// the max in F). Self-edges (p to (q,p)) always have weight 1.
func FromPAR(inst *par.Instance) *Graph {
	g := &Graph{
		LeftWeights:  inst.Cost,
		EdgesByPhoto: make([][]Edge, inst.NumPhotos()),
		Budget:       inst.Budget,
	}
	// Right nodes in subset-major order; remember each subset's offset.
	offsets := make([]int, len(inst.Subsets))
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		offsets[qi] = len(g.Right)
		for mi, p := range q.Members {
			g.Right = append(g.Right, RightNode{
				Subset: qi,
				Index:  mi,
				Photo:  p,
				Weight: q.Weight * q.Relevance[mi],
			})
		}
	}
	var row []par.Neighbor
	for qi := range inst.Subsets {
		q := &inst.Subsets[qi]
		for mi, p := range q.Members {
			if nl, ok := q.Sim.(par.NeighborLister); ok {
				row = nl.AppendNeighbors(row[:0], mi)
				for _, nb := range row {
					g.EdgesByPhoto[p] = append(g.EdgesByPhoto[p], Edge{
						Photo:  p,
						Right:  offsets[qi] + nb.Index,
						Weight: nb.Sim,
					})
				}
				continue
			}
			for mj := range q.Members {
				if w := q.Sim.Sim(mi, mj); w > 0 {
					g.EdgesByPhoto[p] = append(g.EdgesByPhoto[p], Edge{
						Photo:  p,
						Right:  offsets[qi] + mj,
						Weight: w,
					})
				}
			}
		}
	}
	return g
}

// Value computes F(S) for a set of left nodes (photos).
func (g *Graph) Value(s []par.PhotoID) float64 {
	best := make([]float64, len(g.Right))
	for _, p := range s {
		for _, e := range g.EdgesByPhoto[p] {
			if e.Weight > best[e.Right] {
				best[e.Right] = e.Weight
			}
		}
	}
	var total float64
	for ri, b := range best {
		total += g.Right[ri].Weight * b
	}
	return total
}

// Cost returns Σ w_L over the chosen photos.
func (g *Graph) Cost(s []par.PhotoID) float64 {
	var total float64
	for _, p := range s {
		total += g.LeftWeights[p]
	}
	return total
}

// TotalRightWeight returns W_R = Σ_{(q,p)∈T_R} w_R(q,p), the constant of
// Theorem 4.8.
func (g *Graph) TotalRightWeight() float64 {
	var total float64
	for _, r := range g.Right {
		total += r.Weight
	}
	return total
}

// NumEdges returns the number of materialized (positive-weight) edges; the
// sparsification experiments report how τ shrinks it.
func (g *Graph) NumEdges() int {
	var n int
	for _, es := range g.EdgesByPhoto {
		n += len(es)
	}
	return n
}

// Sparsify returns a copy of the graph that keeps only edges of weight ≥ τ
// plus all self-edges (a photo always fully covers its own right nodes, as
// the paper's τ-sparsification keeps the diagonal intact).
func (g *Graph) Sparsify(tau float64) *Graph {
	out := &Graph{
		LeftWeights:  g.LeftWeights,
		Right:        g.Right,
		EdgesByPhoto: make([][]Edge, len(g.EdgesByPhoto)),
		Budget:       g.Budget,
	}
	for p, es := range g.EdgesByPhoto {
		for _, e := range es {
			if e.Weight >= tau || g.Right[e.Right].Photo == e.Photo {
				out.EdgesByPhoto[p] = append(out.EdgesByPhoto[p], e)
			}
		}
	}
	return out
}
