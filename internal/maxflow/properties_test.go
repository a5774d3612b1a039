package maxflow

import (
	"math/rand"
	"testing"

	"kadre/internal/graph"
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

// TestVertexTombstoneReviveMatchesFresh pins the solver-level vertex
// tombstone/revive semantics the stable-slot population indexing relies
// on: on Even-transformed graphs, removing every incident edge of a
// vertex through ApplyUnitDelta (the vertex tombstone — the slot's arc
// regions stay, with only the never-traversed internal edge alive) and
// later re-wiring the vertex with a DIFFERENT, larger edge set (the
// revive — tombstone revivals plus slack claims plus, beyond arcSlack,
// a region relocation) must leave HaoOrlin and Dinic answering exactly
// like fresh solvers on the edited graph: flow values, MaxFlowLimit
// returns, and Dinic's extracted-cut residuals.
func TestVertexTombstoneReviveMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 10 + r.Intn(12)
		g, even := evenGraph(r, n, 3)
		patched := map[string]Solver{
			"dinic":     NewDinic(2*n, even),
			"hao-orlin": NewHaoOrlin(2*n, even),
		}
		victim := r.Intn(n)

		// Tombstone: remove every edge incident to victim.
		var removed []graph.Edge
		for _, e := range g.Edges() {
			if e.U == victim || e.V == victim {
				removed = append(removed, e)
			}
		}
		for _, e := range removed {
			g.RemoveEdge(e.U, e.V)
		}
		checkAgainstFresh := func(stage string) {
			t.Helper()
			freshEven := unitEven(g)
			for name, s := range patched {
				var fresh Solver
				if name == "dinic" {
					fresh = NewDinic(2*n, freshEven)
				} else {
					fresh = NewHaoOrlin(2*n, freshEven)
				}
				for q := 0; q < 8; q++ {
					src, tgt := r.Intn(n), r.Intn(n)
					if src == tgt {
						continue
					}
					sOut, tIn := graph.Out(src), graph.In(tgt)
					fresh.PrepareSource(sOut)
					s.PrepareSource(sOut)
					want := fresh.MaxFlow(sOut, tIn)
					if got := s.MaxFlow(sOut, tIn); got != want {
						t.Fatalf("trial %d %s %s (%d,%d): patched=%d, fresh=%d", trial, stage, name, src, tgt, got, want)
					}
					// MaxFlowLimit must agree between the patched and fresh
					// instances of the same algorithm at every limit.
					for _, lim := range []int{0, 1, want, want + 1} {
						if got, wantL := s.MaxFlowLimit(sOut, tIn, lim), fresh.MaxFlowLimit(sOut, tIn, lim); got != wantL {
							t.Fatalf("trial %d %s %s (%d,%d) limit %d: patched=%d, fresh=%d",
								trial, stage, name, src, tgt, lim, got, wantL)
						}
					}
				}
			}
			// Extracted cuts: patched Dinic's residual equals fresh Dinic's.
			pd := patched["dinic"].(*DinicSolver)
			fd := NewDinic(2*n, freshEven)
			for q := 0; q < 4; q++ {
				src, tgt := r.Intn(n), r.Intn(n)
				if src == tgt || g.HasEdge(src, tgt) {
					continue
				}
				if pv, fv := pd.MaxFlow(graph.Out(src), graph.In(tgt)), fd.MaxFlow(graph.Out(src), graph.In(tgt)); pv != fv {
					t.Fatalf("trial %d %s cut-pair flow %d != %d", trial, stage, pv, fv)
				}
				pr := pd.ResidualReachable(graph.Out(src))
				fr := fd.ResidualReachable(graph.Out(src))
				for v := range pr {
					if pr[v] != fr[v] {
						t.Fatalf("trial %d %s: residual reachability diverged at vertex %d", trial, stage, v)
					}
				}
			}
		}
		rem := evenDelta(removed)
		for name, s := range patched {
			if !s.ApplyUnitDelta(EdgeSlice{}, rem) {
				t.Fatalf("trial %d %s: vertex tombstone delta rejected", trial, name)
			}
		}
		checkAgainstFresh("tombstoned")

		// Revive: wire the vertex back with a different, larger edge set —
		// more out-edges than arcSlack so the revive exercises relocation.
		var added []graph.Edge
		for v := 0; v < n && len(added) < arcSlack+3; v++ {
			if v != victim && !g.HasEdge(victim, v) {
				g.AddEdge(victim, v)
				added = append(added, graph.Edge{U: victim, V: v})
			}
		}
		for v := n - 1; v >= 0 && len(added) < arcSlack+6; v-- {
			if v != victim && !g.HasEdge(v, victim) {
				g.AddEdge(v, victim)
				added = append(added, graph.Edge{U: v, V: victim})
			}
		}
		add := evenDelta(added)
		for name, s := range patched {
			if !s.ApplyUnitDelta(add, EdgeSlice{}) {
				t.Fatalf("trial %d %s: vertex revive delta rejected", trial, name)
			}
		}
		checkAgainstFresh("revived")
	}
}

func TestZeroEdgeGraph(t *testing.T) {
	for name, factory := range solvers() {
		if got := factory(3, nil).MaxFlow(0, 2); got != 0 {
			t.Fatalf("%s: empty graph flow = %d", name, got)
		}
	}
}
