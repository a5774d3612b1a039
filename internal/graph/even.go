package graph

import (
	"cmp"
	"slices"
)

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
// unit capacities, avoiding an intermediate 2n-vertex Digraph. The vertex
// count of the transformed graph is 2*g.N().
func EvenEdges(g *Digraph) []Edge {
	return g.AppendEvenEdges(make([]Edge, 0, g.N()+g.M()))
}

// AppendEvenEdgesCompact appends the Even-transformed edge list of the
// graph's active subgraph in COMPACTED rank numbering: order maps dense
// rank -> vertex (the active vertices in canonical order) and rank is
// its inverse. The output is exactly what AppendEvenEdges would produce
// for the densely renumbered subgraph — n internal edges in rank order,
// then the original edges sorted by rank pair — which is what keeps
// analyses (and extracted cuts) on a stable-slot binding bit-identical
// to a fresh bind of the canonical compacted graph. Every edge of g must
// join vertices listed in order.
func (g *Digraph) AppendEvenEdgesCompact(buf []Edge, order []int, rank []int32) []Edge {
	for r := range order {
		buf = append(buf, Edge{U: In(r), V: Out(r)})
	}
	for r, u := range order {
		start := len(buf)
		g.eachSucc(u, func(v int) { buf = append(buf, Edge{U: Out(r), V: In(int(rank[v]))}) })
		// The row walks u's successors in slot order, which rank permutes.
		slices.SortFunc(buf[start:], func(a, b Edge) int { return cmp.Compare(a.V, b.V) })
	}
	return buf
}

// AppendEvenEdges appends the Even-transformed edge list to buf and
// returns the extended slice. It produces exactly the edges of EvenEdges
// in the same deterministic order — the n internal edges (v', v”) in
// vertex order first, then the original edges (u”, v') in ascending
// (u, v) order, read straight off the rows — but lets sweeping callers
// reuse one buffer across many graphs instead of allocating a fresh slice
// per snapshot.
func (g *Digraph) AppendEvenEdges(buf []Edge) []Edge {
	for v := 0; v < g.n; v++ {
		buf = append(buf, Edge{U: In(v), V: Out(v)})
	}
	for u := 0; u < g.n; u++ {
		g.eachSucc(u, func(v int) { buf = append(buf, Edge{U: Out(u), V: In(v)}) })
	}
	return buf
}
