// Package graph provides the directed connectivity-graph representation
// used throughout the reproduction: adjacency storage, Even's
// vertex-splitting transformation (which reduces vertex connectivity to
// maximum flow), and DIMACS max-flow file I/O compatible with the HIPR
// solver the paper used.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a simple directed graph on vertices 0..N-1 with no self-loops
// and no parallel edges (duplicate AddEdge calls are idempotent). It is the
// in-memory form of the paper's connectivity graph D(V, E); every edge
// carries an implicit capacity of 1.
type Digraph struct {
	n   int
	adj []map[int32]struct{} // adjacency sets, one per vertex
	m   int
}

// NewDigraph returns an empty digraph with n vertices.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Digraph{n: n, adj: make([]map[int32]struct{}, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the directed edge (u, v). Self-loops are rejected because
// the connectivity graph never contains them (a node does not keep itself
// in its routing table). Duplicate edges are ignored.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int32]struct{})
	}
	if _, dup := g.adj[u][int32(v)]; dup {
		return
	}
	g.adj[u][int32(v)] = struct{}{}
	g.m++
}

// RemoveEdge deletes the directed edge (u, v) if present and reports
// whether it existed. Removing an absent edge is a no-op, mirroring
// AddEdge's idempotence.
func (g *Digraph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if _, ok := g.adj[u][int32(v)]; !ok {
		return false
	}
	delete(g.adj[u], int32(v))
	g.m--
	return true
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Digraph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.adj[u][int32(v)]
	return ok
}

// OutDegree returns the number of edges leaving u.
func (g *Digraph) OutDegree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// InDegrees returns the in-degree of every vertex in one O(N+M) pass.
func (g *Digraph) InDegrees() []int {
	in := make([]int, g.n)
	for _, nbrs := range g.adj {
		for v := range nbrs {
			in[v]++
		}
	}
	return in
}

// Successors returns u's out-neighbours in ascending order. The slice is
// freshly allocated and safe for the caller to keep.
func (g *Digraph) Successors(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}

// AppendSuccessors appends u's out-neighbours to dst in arbitrary order
// and returns the extended slice: the unsorted form of Successors, which
// allocates nothing when dst has room. It exists to fill flat adjacency
// arrays whose consumers do not depend on the order.
func (g *Digraph) AppendSuccessors(dst []int32, u int) []int32 {
	g.check(u)
	for v := range g.adj[u] {
		dst = append(dst, v)
	}
	return dst
}

// Edges returns all edges in deterministic (u, then v) order.
func (g *Digraph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Successors(u) {
			out = append(out, Edge{U: u, V: v})
		}
	}
	return out
}

// Edge is a directed edge (U, V).
type Edge struct{ U, V int }

// IsComplete reports whether every ordered pair of distinct vertices is an
// edge. For a complete graph the vertex connectivity is N-1 by definition
// and no flow computation is needed.
func (g *Digraph) IsComplete() bool {
	return g.m == g.n*(g.n-1)
}

// IsSymmetric reports whether for every edge (u, v) the reverse edge (v, u)
// also exists, i.e. the digraph is an undirected graph in disguise. The
// paper observes Kademlia connectivity graphs are "very close to being
// undirected"; SymmetryRatio quantifies that.
func (g *Digraph) IsSymmetric() bool {
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if !g.HasEdge(int(v), u) {
				return false
			}
		}
	}
	return true
}

// SymmetryRatio returns the fraction of edges whose reverse edge also
// exists (1.0 for a symmetric graph, 0.0 for an antisymmetric one). An
// empty graph is vacuously symmetric.
func (g *Digraph) SymmetryRatio() float64 {
	if g.m == 0 {
		return 1.0
	}
	sym := 0
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if g.HasEdge(int(v), u) {
				sym++
			}
		}
	}
	return float64(sym) / float64(g.m)
}

// Equal reports whether g and h have the same vertex count and the same
// edge set.
func (g *Digraph) Equal(h *Digraph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for v := range g.adj[u] {
			if _, ok := h.adj[u][v]; !ok {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	out := NewDigraph(g.n)
	for u := 0; u < g.n; u++ {
		if g.adj[u] == nil {
			continue
		}
		out.adj[u] = make(map[int32]struct{}, len(g.adj[u]))
		for v := range g.adj[u] {
			out.adj[u][v] = struct{}{}
		}
	}
	out.m = g.m
	return out
}

// Symmetrize returns a copy of the graph with every reverse edge added.
func (g *Digraph) Symmetrize() *Digraph {
	out := g.Clone()
	for _, e := range g.Edges() {
		if !out.HasEdge(e.V, e.U) {
			out.AddEdge(e.V, e.U)
		}
	}
	return out
}

func (g *Digraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
