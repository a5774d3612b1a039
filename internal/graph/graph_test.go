package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate: ignored
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge direction not respected")
	}
	if g.OutDegree(0) != 1 || g.OutDegree(3) != 0 {
		t.Fatal("wrong out-degrees")
	}
	in := g.InDegrees()
	if in[1] != 1 || in[2] != 1 || in[0] != 0 {
		t.Fatalf("InDegrees = %v", in)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	NewDigraph(2).AddEdge(1, 1)
}

func TestVertexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range vertex")
		}
	}()
	NewDigraph(2).AddEdge(0, 2)
}

func TestSuccessorsSortedAndCopied(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	s := g.Successors(0)
	want := []int{2, 3, 4}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", s, want)
		}
	}
	s[0] = 99
	if g.Successors(0)[0] != 2 {
		t.Fatal("Successors leaked internal state")
	}
}

func TestAppendSuccessors(t *testing.T) {
	g := NewDigraph(6)
	for _, v := range []int{4, 2, 3} {
		g.AddEdge(0, v)
	}
	g.AddEdge(1, 5)
	buf := make([]int32, 0, 8)
	buf = g.AppendSuccessors(buf, 1)
	buf = g.AppendSuccessors(buf, 0)
	buf = g.AppendSuccessors(buf, 3) // no successors: appends nothing
	if want := []int32{5, 2, 3, 4}; !slices.Equal(buf, want) {
		t.Fatalf("AppendSuccessors = %v, want %v", buf, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { buf = g.AppendSuccessors(buf[:0], 0) }); allocs != 0 {
		t.Fatalf("AppendSuccessors into a fitting buffer allocates %.0f times", allocs)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(2, 0)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	e := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {2, 0}}
	if len(e) != len(want) {
		t.Fatalf("Edges = %v", e)
	}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", e, want)
		}
	}
}

func complete(n int) *Digraph {
	g := NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestIsComplete(t *testing.T) {
	if !complete(5).IsComplete() {
		t.Error("K5 should be complete")
	}
	g := complete(5)
	g2 := NewDigraph(5)
	for _, e := range g.Edges() {
		if e.U == 0 && e.V == 1 {
			continue
		}
		g2.AddEdge(e.U, e.V)
	}
	if g2.IsComplete() {
		t.Error("K5 minus an edge should not be complete")
	}
	if !NewDigraph(1).IsComplete() {
		t.Error("single vertex graph is trivially complete")
	}
}

func TestSymmetry(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if !g.IsSymmetric() || g.SymmetryRatio() != 1.0 {
		t.Error("mutual edge pair should be symmetric")
	}
	g.AddEdge(1, 2)
	if g.IsSymmetric() {
		t.Error("one-way edge breaks symmetry")
	}
	if got := g.SymmetryRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("SymmetryRatio = %v, want 2/3", got)
	}
	sym := g.Symmetrize()
	if !sym.IsSymmetric() {
		t.Error("Symmetrize result should be symmetric")
	}
	if sym.M() != 4 {
		t.Errorf("symmetrized M = %d, want 4", sym.M())
	}
	if g.M() != 3 {
		t.Error("Symmetrize mutated the original")
	}
	if NewDigraph(0).SymmetryRatio() != 1.0 {
		t.Error("empty graph is vacuously symmetric")
	}
}

func TestClone(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("Clone shares state with original")
	}
	if !c.HasEdge(0, 1) || c.M() != 2 || g.M() != 1 {
		t.Fatal("Clone incomplete")
	}
}

func TestEvenTransformCounts(t *testing.T) {
	// Property: transformed graph has 2n vertices and m+n edges.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := NewDigraph(n)
		for i := 0; i < n*2; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		tg := EvenTransform(g)
		return tg.N() == 2*n && tg.M() == g.M()+n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvenTransformStructure(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	tg := EvenTransform(g)
	// Internal edges v' -> v''.
	for v := 0; v < 3; v++ {
		if !tg.HasEdge(In(v), Out(v)) {
			t.Fatalf("missing internal edge for vertex %d", v)
		}
		if tg.HasEdge(Out(v), In(v)) {
			t.Fatalf("unexpected reverse internal edge for vertex %d", v)
		}
	}
	// Original (u,v) becomes (u'', v').
	if !tg.HasEdge(Out(0), In(1)) || !tg.HasEdge(Out(1), In(2)) {
		t.Fatal("original edges not rewired to out->in")
	}
	if tg.HasEdge(Out(0), In(2)) {
		t.Fatal("phantom edge appeared")
	}
	// Degree constraints from the paper: outgoing degree of v' is 1 and
	// incoming degree of v'' is 1.
	in := tg.InDegrees()
	for v := 0; v < 3; v++ {
		if tg.OutDegree(In(v)) != 1 {
			t.Errorf("outdeg(v') = %d for v=%d, want 1", tg.OutDegree(In(v)), v)
		}
		if in[Out(v)] != 1 {
			t.Errorf("indeg(v'') = %d for v=%d, want 1", in[Out(v)], v)
		}
	}
}

func TestEvenEdgesMatchesTransform(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := NewDigraph(10)
	for i := 0; i < 40; i++ {
		u, v := r.Intn(10), r.Intn(10)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	want := EvenTransform(g)
	got := NewDigraph(2 * g.N())
	for _, e := range EvenEdges(g) {
		got.AddEdge(e.U, e.V)
	}
	if got.M() != want.M() {
		t.Fatalf("edge counts differ: %d vs %d", got.M(), want.M())
	}
	for _, e := range want.Edges() {
		if !got.HasEdge(e.U, e.V) {
			t.Fatalf("missing edge %v", e)
		}
	}
}

func TestInOutMapping(t *testing.T) {
	for v := 0; v < 100; v++ {
		if In(v) == Out(v) {
			t.Fatal("In and Out collide")
		}
		if In(v) != 2*v || Out(v) != 2*v+1 {
			t.Fatal("unexpected index mapping")
		}
	}
}
