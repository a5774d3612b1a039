package connectivity

import "kadre/internal/graph"

// RemoveVertices returns a copy of g with the given vertices deleted
// (vertices are renumbered densely; the returned mapping gives old-to-new
// indexes, with -1 for removed vertices). It simulates node compromise:
// the cut tests and the ids example remove a cut and check the residual
// connectivity.
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
