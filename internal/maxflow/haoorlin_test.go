package maxflow

import (
	"math/rand"
	"testing"

	"kadre/internal/graph"
)

// randomEdges builds a random digraph edge list with capacities in
// [1, maxCap] (possibly with parallel edges, which solvers must accept).
func randomEdges(r *rand.Rand, n, m, maxCap int) []Edge {
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, Cap: int32(1 + r.Intn(maxCap))})
	}
	return edges
}

// TestHaoOrlinSweepMatchesDinicPerPair is the property-based equivalence
// oracle for the sweep solver: random graphs, random same-source sink
// sequences, every value checked against a fresh Dinic solve of the same
// pair — including MaxFlowLimit's exactly-min(limit, flow) contract and
// re-Reset to a different graph mid-life.
func TestHaoOrlinSweepMatchesDinicPerPair(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ho := NewHaoOrlin(2, []Edge{{0, 1, 1}})
	for trial := 0; trial < 50; trial++ {
		n := 4 + r.Intn(20)
		edges := randomEdges(r, n, 4*n, 1+trial%5)
		ho.Reset(n, EdgeSlice(edges)) // re-bind path: the same solver serves every trial
		for srcTrial := 0; srcTrial < 3; srcTrial++ {
			s := r.Intn(n)
			ho.PrepareSource(s)
			for q := 0; q < 8; q++ {
				tgt := r.Intn(n)
				if tgt == s {
					continue
				}
				want := NewDinic(n, edges).MaxFlow(s, tgt)
				if got := ho.MaxFlow(s, tgt); got != want {
					t.Fatalf("trial %d (%d,%d): hao-orlin=%d, fresh dinic=%d (n=%d edges=%v)",
						trial, s, tgt, got, want, n, edges)
				}
				limit := r.Intn(want + 3)
				if got := ho.MaxFlowLimit(s, tgt, limit); got != min(limit, want) {
					t.Fatalf("trial %d (%d,%d) limit %d: got %d, want exactly min(limit, %d)", trial, s, tgt, limit, got, want)
				}
			}
		}
	}
}

func unitEven(g *graph.Digraph) []Edge {
	ge := graph.EvenEdges(g)
	out := make([]Edge, len(ge))
	for i, e := range ge {
		out[i] = Edge{U: e.U, V: e.V, Cap: 1}
	}
	return out
}
