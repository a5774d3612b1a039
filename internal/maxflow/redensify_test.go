package maxflow

import (
	"math/rand"
	"testing"

	"kadre/internal/graph"
)

// TestRedensifyMatchesFresh churns an Even-transformed graph through
// random delta sequences while periodically re-densifying each
// long-lived solver, and compares every answer — flows, capped flows,
// prepared-source queries, and Dinic's residual reachability (the cut
// certificate, which pins arc-order preservation across the rebuild) —
// against freshly built solvers of the current graph. This is the core
// compaction contract: Compact() releases tombstones and dead regions
// without perturbing a single result.
func TestRedensifyMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(11))
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
			case k < 0.5: // remove a random existing edge
				all := g.Edges()
				if len(all) == 0 {
					continue
				}
				e := all[r.Intn(len(all))]
				g.RemoveEdge(e.U, e.V)
				delta.Removed = append(delta.Removed, e)
				removedPool = append(removedPool, e)
			case k < 0.75 && len(removedPool) > 0: // revive a tombstone
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
				s.Reset(2*n, EdgeSlice(even))
			}
			// Re-densify on a rolling schedule so each algorithm compacts
			// at several distinct tombstone depths, including right after
			// a delta and (via the query loop below) right before queries.
			if step%4 == 3 {
				s.Compact()
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
					t.Fatalf("step %d %s (%d,%d): compacted=%d, rebuilt=%d", step, name, src, tgt, got, want)
				}
				// The limit contract: exact when the limit exceeds the true
				// flow, otherwise at least the limit (solvers may overshoot
				// the cap before noticing it).
				for _, lim := range []int{1, want, want + 1} {
					got := s.MaxFlowLimit(sOut, tIn, lim)
					if lim >= want && got != want {
						t.Fatalf("step %d %s limit %d: got %d, want %d", step, name, lim, got, want)
					}
					if lim < want && (got < lim || got > want) {
						t.Fatalf("step %d %s limit %d: got %d outside [%d,%d]", step, name, lim, got, lim, want)
					}
				}
			}
		}
		// Arc-order preservation: a compacted Dinic must leave the exact
		// residual a rebuilt one leaves, certified by ResidualReachable.
		pd := patched["dinic"].(*DinicSolver)
		fd := NewDinic(2*n, even)
		src, tgt := 0, n-1
		if !g.HasEdge(src, tgt) {
			pv := pd.MaxFlow(graph.Out(src), graph.In(tgt))
			fv := fd.MaxFlow(graph.Out(src), graph.In(tgt))
			if pv != fv {
				t.Fatalf("step %d: cut-pair flow %d != %d", step, pv, fv)
			}
			pr := pd.ResidualReachable(graph.Out(src))
			fr := fd.ResidualReachable(graph.Out(src))
			for v := range pr {
				if pr[v] != fr[v] {
					t.Fatalf("step %d: residual reachability diverged at vertex %d (compacted %v, rebuilt %v)",
						step, v, pr[v], fr[v])
				}
			}
		}
	}
}

// TestRedensifyAfterRelocation pins the dead-region reclamation: a slack
// overflow relocates a vertex region to the tail, stranding the old
// region as dead arcs; Compact must release them (Arcs shrinks back to
// the live+slack footprint) with bit-identical answers.
func TestRedensifyAfterRelocation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 12
	g, even := evenGraph(r, n, 2)
	for _, algo := range []Algorithm{Dinic, HaoOrlin} {
		s := algo.NewSolver(2*n, even)
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
			t.Fatalf("%s: ApplyUnitDelta should relocate, not fail", algo)
		}
		before := s.ArcStats()
		if before.Relocations == 0 || before.Dead == 0 {
			t.Fatalf("%s: expected a relocation with dead arcs, got %+v", algo, before)
		}
		s.Compact()
		after := s.ArcStats()
		if after.Dead != 0 || after.Tombstones != 0 || after.Relocations != 0 {
			t.Fatalf("%s: post-compact stats not clean: %+v", algo, after)
		}
		if after.Arcs >= before.Arcs {
			t.Fatalf("%s: compact did not shrink arc array: %d -> %d", algo, before.Arcs, after.Arcs)
		}
		if after.Arcs != after.Live+after.Slack {
			t.Fatalf("%s: post-compact identity broken: %+v", algo, after)
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
				t.Fatalf("%s: after compact, (%d,%d): got %d, want %d", algo, src, tgt, got, want)
			}
		}
	}
}

// TestArcStatsAccounting pins the ArcStats identity Arcs == Live +
// Tombstones + Slack + Dead across a fresh build, tombstoning, and
// re-densification, plus the DeadFrac trigger input the governance
// layer thresholds on.
func TestArcStatsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 16
	g, even := evenGraph(r, n, 3)
	s := NewDinic(2*n, even)
	check := func(stage string, st ArcStats) {
		t.Helper()
		if st.Arcs != st.Live+st.Tombstones+st.Slack+st.Dead {
			t.Fatalf("%s: identity broken: %+v", stage, st)
		}
		if st.Arcs != len(s.st.to) {
			t.Fatalf("%s: Arcs %d != arc array length %d", stage, st.Arcs, len(s.st.to))
		}
	}
	st := s.ArcStats()
	check("fresh", st)
	if st.Tombstones != 0 || st.Dead != 0 || st.Relocations != 0 {
		t.Fatalf("fresh build has garbage: %+v", st)
	}
	if st.Slack != 2*n*arcSlack {
		t.Fatalf("fresh slack %d, want %d per-vertex reserve", st.Slack, 2*n*arcSlack)
	}
	if st.DeadFrac() != 0 {
		t.Fatalf("fresh DeadFrac %v, want 0", st.DeadFrac())
	}

	// Tombstone half the original edges: each removal kills one Even arc
	// pair, and DeadFrac rises accordingly.
	all := g.Edges()
	var rem EdgeSlice
	for i, e := range all {
		if i%2 == 0 {
			rem = append(rem, Edge{U: graph.Out(e.U), V: graph.In(e.V), Cap: 1})
			g.RemoveEdge(e.U, e.V)
		}
	}
	if !s.ApplyUnitDelta(EdgeSlice{}, rem) {
		t.Fatal("tombstone delta rejected")
	}
	st = s.ArcStats()
	check("tombstoned", st)
	if st.Tombstones != 2*len(rem) {
		t.Fatalf("tombstones %d, want %d (a pair per removed edge)", st.Tombstones, 2*len(rem))
	}
	if st.DeadFrac() <= 0 {
		t.Fatalf("DeadFrac %v after tombstoning, want > 0", st.DeadFrac())
	}

	beforeArcs := st.Arcs
	s.Compact()
	st = s.ArcStats()
	check("compacted", st)
	if st.Tombstones != 0 || st.Dead != 0 || st.Relocations != 0 {
		t.Fatalf("compact left garbage: %+v", st)
	}
	if st.Arcs >= beforeArcs {
		t.Fatalf("compact did not shrink arcs: %d -> %d", beforeArcs, st.Arcs)
	}
	if st.DeadFrac() != 0 {
		t.Fatalf("post-compact DeadFrac %v, want 0", st.DeadFrac())
	}

	// The compacted store still answers like a fresh build.
	even = unitEven(g)
	fresh := NewDinic(2*n, even)
	for q := 0; q < 10; q++ {
		src, tgt := r.Intn(n), r.Intn(n)
		if src == tgt {
			continue
		}
		want := fresh.MaxFlow(graph.Out(src), graph.In(tgt))
		if got := s.MaxFlow(graph.Out(src), graph.In(tgt)); got != want {
			t.Fatalf("compacted store (%d,%d): got %d, want %d", src, tgt, got, want)
		}
	}
}

// FuzzDiffApplyRedensify extends the delta fuzz oracle across a
// re-densify boundary: an arbitrary byte string decodes into a base
// graph and two mutation batches; the solver applies batch one,
// compacts, applies batch two, and must still answer exactly like a
// solver built fresh from the final graph. This is the shape the
// governance layer produces — deltas straddling a compaction event.
func FuzzDiffApplyRedensify(f *testing.F) {
	f.Add([]byte{8, 3, 12, 200, 9, 77, 4, 1, 250, 33})
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{16, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 2 + next()%12
		g := graph.NewDigraph(n)
		for i, m := 0, next()%40; i < m; i++ {
			u, v := next()%n, next()%n
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		solvers := map[string]Solver{
			"dinic":     NewDinic(2*n, unitEven(g)),
			"hao-orlin": NewHaoOrlin(2*n, unitEven(g)),
		}
		batch := func() (EdgeSlice, EdgeSlice) {
			var delta graph.Delta
			// Each edge toggles at most once per batch: a real diff never
			// lists the same edge as both added and removed.
			touched := make(map[[2]int]bool)
			for i, m := 0, next()%16; i < m; i++ {
				u, v := next()%n, next()%n
				if u == v || touched[[2]int{u, v}] {
					continue
				}
				touched[[2]int{u, v}] = true
				if g.HasEdge(u, v) {
					g.RemoveEdge(u, v)
					delta.Removed = append(delta.Removed, graph.Edge{U: u, V: v})
				} else {
					g.AddEdge(u, v)
					delta.Added = append(delta.Added, graph.Edge{U: u, V: v})
				}
			}
			return evenDelta(delta.Added), evenDelta(delta.Removed)
		}
		apply := func(stage string, add, rem EdgeSlice) {
			for name, s := range solvers {
				if !s.ApplyUnitDelta(add, rem) {
					t.Fatalf("%s %s: consistent delta rejected (add=%v rem=%v)", stage, name, add, rem)
				}
			}
		}

		add, rem := batch()
		apply("pre-compact", add, rem)
		for _, s := range solvers {
			s.Compact()
		}
		add, rem = batch()
		apply("post-compact", add, rem)

		fresh := NewDinic(2*n, unitEven(g))
		for src := 0; src < n; src++ {
			tgt := (src + 1 + next()%(n-1)) % n
			if src == tgt {
				continue
			}
			sOut, tIn := graph.Out(src), graph.In(tgt)
			want := fresh.MaxFlow(sOut, tIn)
			for name, s := range solvers {
				if got := s.MaxFlow(sOut, tIn); got != want {
					t.Fatalf("%s (%d,%d): got %d, want %d", name, src, tgt, got, want)
				}
			}
		}
		// Residual bit-identity through the compaction boundary.
		pd := solvers["dinic"].(*DinicSolver)
		fd := NewDinic(2*n, unitEven(g))
		if pv, fv := pd.MaxFlow(graph.Out(0), graph.In(n-1)), fd.MaxFlow(graph.Out(0), graph.In(n-1)); pv != fv {
			t.Fatalf("cut-pair flow %d != %d", pv, fv)
		}
		pr := pd.ResidualReachable(graph.Out(0))
		fr := fd.ResidualReachable(graph.Out(0))
		for v := range pr {
			if pr[v] != fr[v] {
				t.Fatalf("residual reachability diverged at vertex %d", v)
			}
		}
	})
}
