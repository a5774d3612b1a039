package maxflow

import (
	"math/rand"
	"testing"

	"kadre/internal/graph"
)

// randomEdges builds a random digraph edge list with capacities in
// [1, maxCap] (possibly with parallel edges, which solvers must accept).
func randomEdges(r *rand.Rand, n, m, maxCap int) []Edge {
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, Cap: int32(1 + r.Intn(maxCap))})
	}
	return edges
}

// TestHaoOrlinSweepMatchesDinicPerPair is the property-based equivalence
// oracle for the sweep solver: random graphs, random same-source sink
// sequences, every value checked against a fresh Dinic solve of the same
// pair — including MaxFlowLimit's exactly-min(limit, flow) contract and
// re-Reset to a different graph mid-life.
func TestHaoOrlinSweepMatchesDinicPerPair(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ho := NewHaoOrlin(2, []Edge{{0, 1, 1}})
	for trial := 0; trial < 50; trial++ {
		n := 4 + r.Intn(20)
		edges := randomEdges(r, n, 4*n, 1+trial%5)
		ho.Reset(n, EdgeSlice(edges)) // re-bind path: the same solver serves every trial
		for srcTrial := 0; srcTrial < 3; srcTrial++ {
			s := r.Intn(n)
			ho.PrepareSource(s)
			for q := 0; q < 8; q++ {
				tgt := r.Intn(n)
				if tgt == s {
					continue
				}
				want := NewDinic(n, edges).MaxFlow(s, tgt)
				if got := ho.MaxFlow(s, tgt); got != want {
					t.Fatalf("trial %d (%d,%d): hao-orlin=%d, fresh dinic=%d (n=%d edges=%v)",
						trial, s, tgt, got, want, n, edges)
				}
				limit := r.Intn(want + 3)
				if got := ho.MaxFlowLimit(s, tgt, limit); got != min(limit, want) {
					t.Fatalf("trial %d (%d,%d) limit %d: got %d, want exactly min(limit, %d)", trial, s, tgt, limit, got, want)
				}
			}
		}
	}
}

// evenGraph builds a random near-symmetric digraph and returns it with
// its Even transform — the exact edge-list shape the connectivity engine
// binds, for which delta patching guarantees fresh-build arc order.
func evenGraph(r *rand.Rand, n, deg int) (*graph.Digraph, []Edge) {
	g := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			v := r.Intn(n)
			if v == u {
				continue
			}
			if !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
			if r.Float64() < 0.8 && !g.HasEdge(v, u) {
				g.AddEdge(v, u)
			}
		}
	}
	return g, unitEven(g)
}

func unitEven(g *graph.Digraph) []Edge {
	ge := graph.EvenEdges(g)
	out := make([]Edge, len(ge))
	for i, e := range ge {
		out[i] = Edge{U: e.U, V: e.V, Cap: 1}
	}
	return out
}

// evenDelta maps an original-space delta to Even-space unit edges.
func evenDelta(edges []graph.Edge) EdgeSlice {
	out := make(EdgeSlice, len(edges))
	for i, e := range edges {
		out[i] = Edge{U: graph.Out(e.U), V: graph.In(e.V), Cap: 1}
	}
	return out
}

// TestApplyUnitDeltaMatchesRebuild churns an Even-transformed graph
// through random delta sequences — removals (tombstones), re-additions
// (revivals) and brand-new edges (slack insertions) — patching one
// long-lived solver of each algorithm in place and comparing every
// answer, plus Dinic's residual reachability (the cut certificate, which
// pins arc-order preservation), against freshly built solvers.
func TestApplyUnitDeltaMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 24
	g, even := evenGraph(r, n, 4)
	patched := map[string]Solver{
		"dinic":     NewDinic(2*n, even),
		"hao-orlin": NewHaoOrlin(2*n, even),
	}
	var removedPool []graph.Edge
	for step := 0; step < 30; step++ {
		var delta graph.Delta
		changes := 1 + r.Intn(5)
		for c := 0; c < changes; c++ {
			switch k := r.Float64(); {
			case k < 0.4: // remove a random existing edge
				all := g.Edges()
				if len(all) == 0 {
					continue
				}
				e := all[r.Intn(len(all))]
				g.RemoveEdge(e.U, e.V)
				delta.Removed = append(delta.Removed, e)
				removedPool = append(removedPool, e)
			case k < 0.7 && len(removedPool) > 0: // revive a tombstone
				e := removedPool[r.Intn(len(removedPool))]
				if g.HasEdge(e.U, e.V) {
					continue
				}
				g.AddEdge(e.U, e.V)
				delta.Added = append(delta.Added, e)
			default: // novel edge: slack insertion
				u, v := r.Intn(n), r.Intn(n)
				if u == v || g.HasEdge(u, v) {
					continue
				}
				g.AddEdge(u, v)
				delta.Added = append(delta.Added, graph.Edge{U: u, V: v})
			}
		}
		even = unitEven(g)
		add, rem := evenDelta(delta.Added), evenDelta(delta.Removed)
		for name, s := range patched {
			if !s.ApplyUnitDelta(add, rem) {
				// Slack exhausted: rebuild in place and keep going — the
				// contract is fallback, not failure.
				s.Reset(2*n, EdgeSlice(even))
			}
			fresh := NewDinic(2*n, even)
			for q := 0; q < 6; q++ {
				src, tgt := r.Intn(n), r.Intn(n)
				if src == tgt {
					continue
				}
				sOut, tIn := graph.Out(src), graph.In(tgt)
				want := fresh.MaxFlow(sOut, tIn)
				s.PrepareSource(sOut)
				if got := s.MaxFlow(sOut, tIn); got != want {
					t.Fatalf("step %d %s (%d,%d): patched=%d, rebuilt=%d", step, name, src, tgt, got, want)
				}
			}
		}
		// Arc-order preservation: a patched Dinic must leave the exact
		// residual a rebuilt one leaves, certified by ResidualReachable.
		pd := patched["dinic"].(*DinicSolver)
		fd := NewDinic(2*n, even)
		src, tgt := 0, n-1
		if !g.HasEdge(src, tgt) && src != tgt {
			pv := pd.MaxFlow(graph.Out(src), graph.In(tgt))
			fv := fd.MaxFlow(graph.Out(src), graph.In(tgt))
			if pv != fv {
				t.Fatalf("step %d: cut-pair flow %d != %d", step, pv, fv)
			}
			pr := pd.ResidualReachable(graph.Out(src))
			fr := fd.ResidualReachable(graph.Out(src))
			for v := range pr {
				if pr[v] != fr[v] {
					t.Fatalf("step %d: residual reachability diverged at vertex %d (patched %v, rebuilt %v)",
						step, v, pr[v], fr[v])
				}
			}
		}
	}
}

// TestApplyUnitDeltaRelocatesOnSlackOverflow pins the region-relocation
// contract: a burst of novel edges at one vertex beyond its arcSlack —
// the shape of a population slot being revived by a higher-degree
// occupant — must still patch in place, and the patched solver must
// answer (and leave residuals) exactly like a freshly built one.
func TestApplyUnitDeltaRelocatesOnSlackOverflow(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 12
	g, even := evenGraph(r, n, 2)
	for _, algo := range []Algorithm{Dinic, HaoOrlin} {
		s := algo.NewSolver(2*n, even)
		// Overflow vertex 0's slack: more novel out-edges than arcSlack.
		var add EdgeSlice
		edited := g.Clone()
		for v := 1; v < n && len(add) < arcSlack+2; v++ {
			if !g.HasEdge(0, v) {
				add = append(add, Edge{U: graph.Out(0), V: graph.In(v), Cap: 1})
				edited.AddEdge(0, v)
			}
		}
		if len(add) <= arcSlack {
			t.Fatalf("test graph too dense to exhaust slack (%d novel edges)", len(add))
		}
		if !s.ApplyUnitDelta(add, EdgeSlice{}) {
			t.Fatalf("%s: ApplyUnitDelta should relocate the region, not fail, on slack overflow", algo)
		}
		newEven := unitEven(edited)
		fresh := NewDinic(2*n, newEven)
		for q := 0; q < 10; q++ {
			src, tgt := r.Intn(n), r.Intn(n)
			if src == tgt {
				continue
			}
			want := fresh.MaxFlow(graph.Out(src), graph.In(tgt))
			if got := s.MaxFlow(graph.Out(src), graph.In(tgt)); got != want {
				t.Fatalf("%s: after relocating patch, (%d,%d): got %d, want %d", algo, src, tgt, got, want)
			}
		}
		if d, ok := s.(*DinicSolver); ok {
			fd := NewDinic(2*n, newEven)
			src, tgt := 1, n-1
			if !edited.HasEdge(src, tgt) {
				if pv, fv := d.MaxFlow(graph.Out(src), graph.In(tgt)), fd.MaxFlow(graph.Out(src), graph.In(tgt)); pv != fv {
					t.Fatalf("relocated cut-pair flow %d != %d", pv, fv)
				}
				pr := d.ResidualReachable(graph.Out(src))
				fr := fd.ResidualReachable(graph.Out(src))
				for v := range pr {
					if pr[v] != fr[v] {
						t.Fatalf("relocated residual reachability diverged at vertex %d", v)
					}
				}
			}
		}
	}
}

// TestApplyUnitDeltaAtomicOnFailure pins the fallback contract: a delta
// inconsistent with the bound graph (here, a removal of an edge that
// does not exist) must be rejected with the solver still answering for
// the OLD graph, so the engine's lazy full Reset sees consistent state.
func TestApplyUnitDeltaAtomicOnFailure(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 12
	g, even := evenGraph(r, n, 2)
	s := NewHaoOrlin(2*n, even)
	var u, v int
	for u = 0; u < n; u++ {
		for v = 1; v < n; v++ {
			if u != v && !g.HasEdge(u, v) {
				goto found
			}
		}
	}
found:
	rem := EdgeSlice{{U: graph.Out(u), V: graph.In(v), Cap: 1}}
	if s.ApplyUnitDelta(EdgeSlice{}, rem) {
		t.Fatal("ApplyUnitDelta should report failure for a removal of a missing edge")
	}
	// The solver must still answer for the old graph.
	fresh := NewDinic(2*n, even)
	for q := 0; q < 10; q++ {
		src, tgt := r.Intn(n), r.Intn(n)
		if src == tgt {
			continue
		}
		want := fresh.MaxFlow(graph.Out(src), graph.In(tgt))
		if got := s.MaxFlow(graph.Out(src), graph.In(tgt)); got != want {
			t.Fatalf("after failed patch, (%d,%d): got %d, want %d (old graph)", src, tgt, got, want)
		}
	}
}
