package maxflow

import (
	"math/rand"
	"testing"
)

// Additional cross-cutting properties of the solvers.

func randomUnitGraph(r *rand.Rand, n, m int) []Edge {
	var edges []Edge
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: u, V: v, Cap: 1})
		}
	}
	return edges
}

func TestMaxFlowLimitConsistency(t *testing.T) {
	// Property, on random unit and capacitated graphs: at every limit
	// around the true flow, HaoOrlin returns exactly min(limit, flow) and
	// Dinic a value in [min(limit, flow), flow] (see checkMaxFlowLimit).
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(20)
		edges := randomUnitGraph(r, n, n*3)
		if trial%2 == 1 {
			edges = randomEdges(r, n, n*3, 4)
		}
		for name, factory := range solvers() {
			s := factory(n, edges)
			src, tgt := 0, n-1
			checkMaxFlowLimit(t, name, s, src, tgt, s.MaxFlow(src, tgt))
		}
	}
}

func TestFlowMonotoneUnderEdgeAddition(t *testing.T) {
	// Adding edges never decreases the max flow, and adding a direct s-t
	// edge increases it by exactly its capacity.
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(10)
		e1 := randomUnitGraph(r, n, n*2)
		e2 := randomUnitGraph(r, n, n*2)
		src, tgt := 0, n-1
		f1 := NewDinic(n, e1).MaxFlow(src, tgt)
		fu := NewDinic(n, append(append([]Edge{}, e1...), e2...)).MaxFlow(src, tgt)
		if fu < f1 {
			t.Fatalf("adding edges decreased flow: %d -> %d", f1, fu)
		}
		direct := append(append([]Edge{}, e1...), Edge{U: src, V: tgt, Cap: 3})
		fd := NewDinic(n, direct).MaxFlow(src, tgt)
		if fd != f1+3 {
			t.Fatalf("direct edge: flow %d, want %d", fd, f1+3)
		}
	}
}

func TestResidualReachableCertifiesMinCut(t *testing.T) {
	// After a max flow, the residual-reachable set S (s in S, t not in S)
	// certifies the flow value: the capacity of arcs from S to V\S equals
	// the flow (max-flow/min-cut).
	r := rand.New(rand.NewSource(63))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(15)
		edges := randomUnitGraph(r, n, n*3)
		d := NewDinic(n, edges)
		src, tgt := 0, n-1
		flow := d.MaxFlow(src, tgt)
		reach := d.ResidualReachable(src)
		if !reach[src] {
			t.Fatal("source not reachable from itself")
		}
		if reach[tgt] {
			t.Fatal("sink reachable in residual graph after max flow")
		}
		var cutCap int
		for _, e := range edges {
			if reach[e.U] && !reach[e.V] {
				cutCap += int(e.Cap)
			}
		}
		if cutCap != flow {
			t.Fatalf("trial %d: cut capacity %d != flow %d", trial, cutCap, flow)
		}
	}
}

func TestSolversHandleParallelAndAntiparallelEdges(t *testing.T) {
	// Parallel edges add capacity; antiparallel edges are independent.
	edges := []Edge{{0, 1, 1}, {0, 1, 1}, {0, 1, 1}, {1, 0, 5}}
	for name, factory := range solvers() {
		s := factory(2, edges)
		if got := s.MaxFlow(0, 1); got != 3 {
			t.Fatalf("%s: parallel edges flow = %d, want 3", name, got)
		}
		if got := s.MaxFlow(1, 0); got != 5 {
			t.Fatalf("%s: antiparallel flow = %d, want 5", name, got)
		}
	}
}

func TestZeroEdgeGraph(t *testing.T) {
	for name, factory := range solvers() {
		if got := factory(3, nil).MaxFlow(0, 2); got != 0 {
			t.Fatalf("%s: empty graph flow = %d", name, got)
		}
	}
}
