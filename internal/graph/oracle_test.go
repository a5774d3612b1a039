package graph

import (
	"cmp"
	"slices"
	"testing"
)

// mapDigraph is the reference digraph for Digraph's bitset rows: one hash
// set per vertex, with every ordered read sorted after the fact.
// FuzzDigraphOps drives both with the same operations and requires every
// read of the Digraph to equal the oracle's.
type mapDigraph struct {
	n   int
	adj []map[int]struct{}
	m   int
}

func newMapDigraph(n int) *mapDigraph {
	o := &mapDigraph{n: n, adj: make([]map[int]struct{}, n)}
	for u := range o.adj {
		o.adj[u] = map[int]struct{}{}
	}
	return o
}

func (o *mapDigraph) addEdge(u, v int) {
	if _, dup := o.adj[u][v]; !dup {
		o.adj[u][v] = struct{}{}
		o.m++
	}
}

func (o *mapDigraph) removeEdge(u, v int) bool {
	if _, ok := o.adj[u][v]; !ok {
		return false
	}
	delete(o.adj[u], v)
	o.m--
	return true
}

func (o *mapDigraph) hasEdge(u, v int) bool {
	_, ok := o.adj[u][v]
	return ok
}

func (o *mapDigraph) successors(u int) []int {
	out := make([]int, 0, len(o.adj[u]))
	for v := range o.adj[u] {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (o *mapDigraph) edges() []Edge {
	var out []Edge
	for u := 0; u < o.n; u++ {
		for _, v := range o.successors(u) {
			out = append(out, Edge{U: u, V: v})
		}
	}
	return out
}

func (o *mapDigraph) clone() *mapDigraph {
	c := newMapDigraph(o.n)
	for _, e := range o.edges() {
		c.addEdge(e.U, e.V)
	}
	return c
}

func (o *mapDigraph) inDegrees() []int {
	in := make([]int, o.n)
	for _, e := range o.edges() {
		in[e.V]++
	}
	return in
}

func (o *mapDigraph) symmetryRatio() float64 {
	if o.m == 0 {
		return 1
	}
	sym := 0
	for _, e := range o.edges() {
		if o.hasEdge(e.V, e.U) {
			sym++
		}
	}
	return float64(sym) / float64(o.m)
}

// diff returns the edges of cur missing from o and of o missing from cur,
// each sorted by (U, V).
func (o *mapDigraph) diff(cur *mapDigraph) (added, removed []Edge) {
	for _, e := range cur.edges() {
		if !o.hasEdge(e.U, e.V) {
			added = append(added, e)
		}
	}
	for _, e := range o.edges() {
		if !cur.hasEdge(e.U, e.V) {
			removed = append(removed, e)
		}
	}
	return added, removed
}

// evenEdges is the Even edge list of the graph: the internal edges in
// vertex order, then every edge sorted by vertex pair.
func (o *mapDigraph) evenEdges() []Edge {
	var out, orig []Edge
	for v := 0; v < o.n; v++ {
		out = append(out, Edge{U: In(v), V: Out(v)})
	}
	for _, e := range o.edges() {
		orig = append(orig, Edge{U: Out(e.U), V: In(e.V)})
	}
	slices.SortFunc(orig, func(a, b Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	return append(out, orig...)
}

// sccs groups the vertices by mutual reachability, members ascending and
// components ordered by their smallest member.
func (o *mapDigraph) sccs() [][]int {
	succ := make([][]int, o.n)
	for u := range succ {
		succ[u] = o.successors(u)
	}
	reach := make([][]bool, o.n)
	for s := range reach {
		reach[s] = make([]bool, o.n)
		reach[s][s] = true
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			for _, v := range succ[queue[0]] {
				if !reach[s][v] {
					reach[s][v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	placed := make([]bool, o.n)
	var comps [][]int
	for u := 0; u < o.n; u++ {
		if placed[u] {
			continue
		}
		var c []int
		for v := u; v < o.n; v++ {
			if reach[u][v] && reach[v][u] {
				placed[v] = true
				c = append(c, v)
			}
		}
		comps = append(comps, c)
	}
	return comps
}

// FuzzDigraphOps drives a Digraph and the map-of-sets oracle through the
// same random AddEdge (duplicates included) and RemoveEdge sequence over
// vertex counts either side of the 64-bit row-word boundaries, then
// requires every read — degrees, ordered enumerations, Equal, Clone,
// DiffInto against a mid-sequence checkpoint, both Even edge lists, SCCs
// and SymmetryRatio — to equal the oracle's. CI runs a short -fuzztime
// smoke of this target.
func FuzzDigraphOps(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 0, 0, 2, 0, 0})
	f.Add(uint8(2), []byte{0, 1, 62, 0, 62, 1, 1, 1, 62, 3, 0, 0, 2, 1, 62, 0, 5, 9})
	f.Add(uint8(3), []byte{0, 0, 63, 0, 63, 0, 1, 63, 0, 3, 0, 0, 2, 0, 63, 0, 10, 20})
	f.Add(uint8(4), []byte{0, 64, 0, 0, 0, 64, 0, 63, 64, 3, 0, 0, 2, 64, 0, 0, 1, 2, 0, 2, 1})
	f.Add(uint8(4), []byte{0, 0, 1, 0, 0, 63, 0, 0, 64, 3, 0, 0, 0, 64, 0, 0, 64, 63, 0, 64, 1, 2, 0, 63, 0, 2, 64})
	f.Add(uint8(5), []byte{0, 129, 0, 0, 0, 129, 0, 64, 128, 0, 128, 64, 3, 0, 0, 2, 0, 129, 0, 127, 128})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		sizes := []int{0, 1, 63, 64, 65, 130}
		n := sizes[int(size)%len(sizes)]
		g, o := NewDigraph(n), newMapDigraph(n)
		base, baseO := g.Clone(), o.clone()
		for ; len(data) >= 3; data = data[3:] {
			op := data[0] % 4
			if op == 3 { // checkpoint: the base DiffInto diffs from
				base, baseO = g.Clone(), o.clone()
				continue
			}
			if n == 0 {
				continue
			}
			u, v := int(data[1])%n, int(data[2])%n
			if u == v {
				continue
			}
			if op == 2 {
				if got, want := g.RemoveEdge(u, v), o.removeEdge(u, v); got != want {
					t.Fatalf("RemoveEdge(%d, %d) = %v, oracle %v", u, v, got, want)
				}
			} else {
				g.AddEdge(u, v)
				o.addEdge(u, v)
			}
		}
		checkAgainstOracle(t, g, o)
		checkAgainstOracle(t, base, baseO)

		var d Delta
		DiffInto(base, g, &d)
		wantAdd, wantRem := baseO.diff(o)
		if !slices.Equal(d.Added, wantAdd) || !slices.Equal(d.Removed, wantRem) {
			t.Fatalf("DiffInto: added %v removed %v, oracle %v / %v", d.Added, d.Removed, wantAdd, wantRem)
		}
		if got, want := base.Equal(g), len(wantAdd)+len(wantRem) == 0; got != want {
			t.Fatalf("base.Equal(g) = %v, oracle %v", got, want)
		}
	})
}

// checkAgainstOracle requires every read of g to equal the oracle's.
func checkAgainstOracle(t *testing.T, g *Digraph, o *mapDigraph) {
	t.Helper()
	if g.N() != o.n || g.M() != o.m {
		t.Fatalf("N, M = %d, %d; oracle %d, %d", g.N(), g.M(), o.n, o.m)
	}
	for u := 0; u < o.n; u++ {
		for v := 0; v < o.n; v++ {
			if g.HasEdge(u, v) != o.hasEdge(u, v) {
				t.Fatalf("HasEdge(%d, %d) = %v, oracle %v", u, v, g.HasEdge(u, v), o.hasEdge(u, v))
			}
		}
		want := o.successors(u)
		if g.OutDegree(u) != len(want) {
			t.Fatalf("OutDegree(%d) = %d, oracle %d", u, g.OutDegree(u), len(want))
		}
		if got := g.Successors(u); !slices.Equal(got, want) {
			t.Fatalf("Successors(%d) = %v, oracle %v", u, got, want)
		}
		got32 := g.AppendSuccessors([]int32{-1}, u)
		if len(got32) != len(want)+1 || got32[0] != -1 {
			t.Fatalf("AppendSuccessors(%d) = %v, oracle %v after -1", u, got32, want)
		}
		for i, v := range want {
			if int(got32[i+1]) != v {
				t.Fatalf("AppendSuccessors(%d) = %v, oracle %v after -1", u, got32, want)
			}
		}
	}
	if got, want := g.InDegrees(), o.inDegrees(); !slices.Equal(got, want) {
		t.Fatalf("InDegrees = %v, oracle %v", got, want)
	}
	if got, want := g.Edges(), o.edges(); !slices.Equal(got, want) {
		t.Fatalf("Edges = %v, oracle %v", got, want)
	}
	if got, want := g.SymmetryRatio(), o.symmetryRatio(); got != want {
		t.Fatalf("SymmetryRatio = %v, oracle %v", got, want)
	}
	if got, want := g.IsSymmetric(), o.symmetryRatio() == 1; got != want {
		t.Fatalf("IsSymmetric = %v, oracle %v", got, want)
	}
	if got, want := g.SCCs(), o.sccs(); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
		t.Fatalf("SCCs = %v, oracle %v", got, want)
	}

	wantEven := o.evenEdges()
	if got := EvenEdges(g); !slices.Equal(got, wantEven) {
		t.Fatalf("EvenEdges = %v, oracle %v", got, wantEven)
	}

	c := g.Clone()
	if !c.Equal(g) || !g.Equal(c) {
		t.Fatal("Clone is not Equal to its source")
	}
	if o.n >= 2 {
		// The clone is independent: flipping one of its edges leaves g
		// alone and breaks equality.
		if c.HasEdge(0, 1) {
			c.RemoveEdge(0, 1)
		} else {
			c.AddEdge(0, 1)
		}
		if c.Equal(g) || g.HasEdge(0, 1) != o.hasEdge(0, 1) {
			t.Fatal("Clone shares state with its source")
		}
	}
}
