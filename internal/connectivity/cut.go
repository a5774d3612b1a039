package connectivity

import "kadre/internal/graph"

// GraphCut returns a minimum vertex cut of the whole graph: the smallest
// vertex set whose removal disconnects some ordered pair, found at the
// pair achieving kappa(D). For a complete graph there is no such cut and
// GraphCut reports ok = false. The cut set is the optimal attack of the
// paper's system model: compromising exactly these kappa(D) nodes
// partitions the network, while any kappa(D)-1 compromised nodes leave it
// connected (r-resilience, Equation 2).
//
// This is the throwaway-per-call form; per-snapshot callers (the cutset
// adversary) should hold an Engine and use Engine.GraphCut, which keeps
// its scratch across bindings. Of q only SampleFraction
// matters: a cut search is always a pruned MinPair analysis.
func GraphCut(g *graph.Digraph, q Query) (cut []int, pair [2]int, ok bool, err error) {
	eng, err := oneShot(g, q)
	if err != nil {
		return nil, [2]int{}, false, err
	}
	return eng.GraphCut(q)
}

// RemoveVertices returns a copy of g with the given vertices deleted
// (vertices are renumbered densely; the returned mapping gives old-to-new
// indexes, with -1 for removed vertices). Examples use this to simulate
// node compromise and verify residual connectivity.
func RemoveVertices(g *graph.Digraph, remove []int) (*graph.Digraph, []int) {
	gone := make(map[int]bool, len(remove))
	for _, v := range remove {
		gone[v] = true
	}
	mapping := make([]int, g.N())
	next := 0
	for v := 0; v < g.N(); v++ {
		if gone[v] {
			mapping[v] = -1
			continue
		}
		mapping[v] = next
		next++
	}
	out := graph.NewDigraph(next)
	for _, e := range g.Edges() {
		if mapping[e.U] >= 0 && mapping[e.V] >= 0 {
			out.AddEdge(mapping[e.U], mapping[e.V])
		}
	}
	return out, mapping
}
