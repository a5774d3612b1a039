package graph

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"
)

func TestSCCsEmptyAndSingle(t *testing.T) {
	if got := NewDigraph(0).SCCs(); len(got) != 0 {
		t.Fatalf("empty graph: got %v components", got)
	}
	if got := NewDigraph(1).SCCs(); !reflect.DeepEqual(got, [][]int{{0}}) {
		t.Fatalf("single vertex: got %v", got)
	}
	if f := NewDigraph(0).LargestSCCFraction(); f != 0 {
		t.Fatalf("empty fraction = %v, want 0", f)
	}
	if f := NewDigraph(1).LargestSCCFraction(); f != 1 {
		t.Fatalf("single fraction = %v, want 1", f)
	}
}

func TestSCCsKnownDecomposition(t *testing.T) {
	// Two 3-cycles bridged by a one-way edge, plus an isolated vertex:
	// {0,1,2}, {3,4,5}, {6}.
	g := NewDigraph(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3) // bridge, not part of any cycle
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	if got := g.SCCs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SCCs = %v, want %v", got, want)
	}
	if got := g.LargestSCC(); got != 3 {
		t.Fatalf("LargestSCC = %d, want 3", got)
	}
	if got := g.LargestSCCFraction(); got != 3.0/7.0 {
		t.Fatalf("LargestSCCFraction = %v, want 3/7", got)
	}
}

func TestSCCsDirectedPath(t *testing.T) {
	// A directed path has only singleton components.
	g := NewDigraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	comps := g.SCCs()
	if len(comps) != 5 {
		t.Fatalf("path: got %d components, want 5", len(comps))
	}
	for i, c := range comps {
		if len(c) != 1 || c[0] != i {
			t.Fatalf("path component %d = %v", i, c)
		}
	}
}

func TestSCCsFullCycleDeepGraph(t *testing.T) {
	// A long cycle drives the traversal to depth n. The rows cost n²/8
	// bytes, so n stays at 1 << 14 (32 MiB of rows) and a stack budget
	// stands in for depth: a recursive visit needs at least 16 bytes a
	// frame, 256 KiB at this depth, and the runtime aborts a goroutine
	// whose stack outgrows the cap, while the iterative traversal keeps
	// its frames on the heap.
	const n = 1 << 14
	g := NewDigraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	defer debug.SetMaxStack(debug.SetMaxStack(n * 16))
	comps := g.SCCs()
	if len(comps) != 1 || len(comps[0]) != n {
		t.Fatalf("cycle: got %d components, largest %d", len(comps), len(comps[0]))
	}
}

// reachable computes mutual-reachability components by brute force BFS.
func reachable(g *Digraph, from int) []bool {
	seen := make([]bool, g.N())
	queue := []int{from}
	seen[from] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Successors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

func TestSCCsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(14)
		g := NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.2 {
					g.AddEdge(u, v)
				}
			}
		}
		fwd := make([][]bool, n)
		for v := 0; v < n; v++ {
			fwd[v] = reachable(g, v)
		}
		compOf := make([]int, n)
		for i, c := range g.SCCs() {
			for _, v := range c {
				compOf[v] = i
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				mutual := fwd[u][v] && fwd[v][u]
				if mutual != (compOf[u] == compOf[v]) {
					t.Fatalf("trial %d: vertices %d,%d mutual=%v but compOf %d vs %d\nSCCs: %v",
						trial, u, v, mutual, compOf[u], compOf[v], g.SCCs())
				}
			}
		}
	}
}
