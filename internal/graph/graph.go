// Package graph provides the directed connectivity-graph representation
// used throughout the reproduction: adjacency storage, Even's
// vertex-splitting transformation (which reduces vertex connectivity to
// maximum flow), and DIMACS max-flow file I/O compatible with the HIPR
// solver the paper used.
//
// A Digraph stores one adjacency bitset row per vertex, n²/8 bytes in
// all (3.6 KB at n = 150, 800 KB at the paper's n = 2 500), so edge
// updates and tests are single bit operations and every enumeration —
// successors, edges, diffs, the Even edge list — comes out in ascending
// vertex order without a sort. The cost is quadratic in n whatever the
// edge count: a large sparse graph that an adjacency list would hold in
// O(n+m) no longer fits (n = 200 000 would need 5 GB), and the decoders
// refuse more than MaxVertices vertices.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// MaxVertices bounds the vertex count the decoders accept: a graph's
// rows cost n²/8 bytes, so 1 << 15 vertices (13x the paper's largest
// network) already take 128 MiB.
const MaxVertices = 1 << 15

// Digraph is a simple directed graph on vertices 0..N-1 with no self-loops
// and no parallel edges (duplicate AddEdge calls are idempotent). It is the
// in-memory form of the paper's connectivity graph D(V, E); every edge
// carries an implicit capacity of 1.
//
// Row u, rows[u*words:(u+1)*words], holds u's out-neighbours as set
// bits; deg caches each row's popcount. The rows take n²/8 bytes however
// few edges the graph has, so a Digraph suits the dense connectivity
// graphs of catalogue networks, not large sparse graphs.
type Digraph struct {
	n     int
	words int      // words per row: (n+63)/64
	rows  []uint64 // n rows; bit v of row u is set iff (u, v) is an edge
	deg   []int32  // out-degree per vertex
	m     int
}

// NewDigraph returns an empty digraph with n vertices, allocating its
// n²/8 bytes of rows up front.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	words := (n + 63) / 64
	return &Digraph{n: n, words: words, rows: make([]uint64, n*words), deg: make([]int32, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// Bytes returns the memory the adjacency takes: the n²/8 bytes of rows
// plus the degree table.
func (g *Digraph) Bytes() int { return len(g.rows)*8 + len(g.deg)*4 }

// row returns u's adjacency bitset.
func (g *Digraph) row(u int) []uint64 { return g.rows[u*g.words : (u+1)*g.words] }

// eachSucc calls f on each of u's out-neighbours in ascending order.
func (g *Digraph) eachSucc(u int, f func(v int)) {
	for i, w := range g.row(u) {
		eachBit(i<<6, w, f)
	}
}

// eachBit calls f on base+b for each set bit b of w in ascending order;
// base is a multiple of 64, the index of w's bit 0 in its row.
func eachBit(base int, w uint64, f func(v int)) {
	for ; w != 0; w &= w - 1 {
		f(base | bits.TrailingZeros64(w))
	}
}

// AddEdge inserts the directed edge (u, v). Self-loops are rejected because
// the connectivity graph never contains them (a node does not keep itself
// in its routing table). Duplicate edges are ignored.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	w, bit := &g.rows[u*g.words+v>>6], uint64(1)<<(v&63)
	if *w&bit != 0 {
		return
	}
	*w |= bit
	g.deg[u]++
	g.m++
}

// RemoveEdge deletes the directed edge (u, v) if present and reports
// whether it existed. Removing an absent edge is a no-op, mirroring
// AddEdge's idempotence.
func (g *Digraph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	w, bit := &g.rows[u*g.words+v>>6], uint64(1)<<(v&63)
	if *w&bit == 0 {
		return false
	}
	*w &^= bit
	g.deg[u]--
	g.m--
	return true
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Digraph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.rows[u*g.words+v>>6]&(1<<(v&63)) != 0
}

// OutDegree returns the number of edges leaving u.
func (g *Digraph) OutDegree(u int) int {
	g.check(u)
	return int(g.deg[u])
}

// InDegrees returns the in-degree of every vertex in one pass over the
// rows.
func (g *Digraph) InDegrees() []int {
	in := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		g.eachSucc(u, func(v int) { in[v]++ })
	}
	return in
}

// Successors returns u's out-neighbours in ascending order. The slice is
// freshly allocated and safe for the caller to keep.
func (g *Digraph) Successors(u int) []int {
	g.check(u)
	out := make([]int, 0, g.deg[u])
	g.eachSucc(u, func(v int) { out = append(out, v) })
	return out
}

// AppendSuccessors appends u's out-neighbours to dst in ascending order
// and returns the extended slice: the int32 form of Successors, which
// allocates nothing when dst has room. It fills flat adjacency arrays.
func (g *Digraph) AppendSuccessors(dst []int32, u int) []int32 {
	g.check(u)
	g.eachSucc(u, func(v int) { dst = append(dst, int32(v)) })
	return dst
}

// Edges returns all edges in ascending (u, then v) order.
func (g *Digraph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		g.eachSucc(u, func(v int) { out = append(out, Edge{U: u, V: v}) })
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
	return g.symmetricEdges() == g.m
}

// SymmetryRatio returns the fraction of edges whose reverse edge also
// exists (1.0 for a symmetric graph, 0.0 for an antisymmetric one). An
// empty graph is vacuously symmetric.
func (g *Digraph) SymmetryRatio() float64 {
	if g.m == 0 {
		return 1.0
	}
	return float64(g.symmetricEdges()) / float64(g.m)
}

// symmetricEdges counts the edges whose reverse edge also exists.
func (g *Digraph) symmetricEdges() int {
	sym := 0
	for u := 0; u < g.n; u++ {
		g.eachSucc(u, func(v int) {
			if g.HasEdge(v, u) {
				sym++
			}
		})
	}
	return sym
}

// Equal reports whether g and h have the same vertex count and the same
// edge set.
func (g *Digraph) Equal(h *Digraph) bool {
	return g.n == h.n && g.m == h.m && slices.Equal(g.rows, h.rows)
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	return &Digraph{n: g.n, words: g.words, rows: slices.Clone(g.rows), deg: slices.Clone(g.deg), m: g.m}
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
