package graph

// Even's vertex-splitting transformation (Even 1975; §4.3 of the paper)
// reduces vertex connectivity between non-adjacent vertices to maximum
// flow. Every vertex v of D(V, E) is split into an incoming vertex v' and
// an outgoing vertex v'' joined by an internal edge (v', v'') of capacity
// 1; every original edge (u, v) becomes (u'', v'). The transformed graph
// has 2n vertices and m+n edges, and for non-adjacent v, w the maximum
// flow from v'' to w' equals the vertex connectivity kappa(v, w).

// In returns the transformed-graph index of v' (the incoming copy of v).
func In(v int) int { return 2 * v }

// Out returns the transformed-graph index of v” (the outgoing copy of v).
func Out(v int) int { return 2*v + 1 }

// EvenTransform applies the vertex-splitting transformation and returns
// the transformed graph. The result has 2*g.N() vertices and g.M()+g.N()
// edges; all capacities remain 1.
func EvenTransform(g *Digraph) *Digraph {
	t := NewDigraph(2 * g.N())
	for v := 0; v < g.N(); v++ {
		t.AddEdge(In(v), Out(v)) // internal edge v' -> v''
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Successors(u) {
			t.AddEdge(Out(u), In(v)) // original edge u -> v becomes u'' -> v'
		}
	}
	return t
}

// EvenEdges returns the transformed graph directly as an edge list with
// unit capacities, avoiding an intermediate 2n-vertex Digraph: the n
// internal edges (v', v”) in vertex order first, then the original edges
// (u”, v') in ascending (u, v) order, read straight off the rows. The
// vertex count of the transformed graph is 2*g.N().
func EvenEdges(g *Digraph) []Edge {
	edges := make([]Edge, 0, g.N()+g.M())
	for v := 0; v < g.n; v++ {
		edges = append(edges, Edge{U: In(v), V: Out(v)})
	}
	for u := 0; u < g.n; u++ {
		g.eachSucc(u, func(v int) { edges = append(edges, Edge{U: Out(u), V: In(v)}) })
	}
	return edges
}
