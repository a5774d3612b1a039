package maxflow

import (
	"math/rand"
	"testing"
)

// referenceMaxFlow is a deliberately simple Edmonds-Karp implementation
// used only as a test oracle.
func referenceMaxFlow(n int, edges []Edge, s, t int) int {
	capm := make([][]int64, n)
	for i := range capm {
		capm[i] = make([]int64, n)
	}
	for _, e := range edges {
		capm[e.U][e.V] += int64(e.Cap)
	}
	flow := 0
	for {
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		queue := []int{s}
		for len(queue) > 0 && parent[t] < 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if capm[u][v] > 0 && parent[v] < 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[t] < 0 {
			return flow
		}
		// Bottleneck along path.
		bottleneck := int64(1 << 62)
		for v := t; v != s; v = parent[v] {
			if capm[parent[v]][v] < bottleneck {
				bottleneck = capm[parent[v]][v]
			}
		}
		for v := t; v != s; v = parent[v] {
			capm[parent[v]][v] -= bottleneck
			capm[v][parent[v]] += bottleneck
		}
		flow += int(bottleneck)
	}
}

// solvers names a constructor per algorithm over an explicit edge list.
func solvers() map[string]func(n int, edges []Edge) Solver {
	return map[string]func(n int, edges []Edge) Solver{
		"dinic":     func(n int, e []Edge) Solver { return NewDinic(n, e) },
		"hao-orlin": func(n int, e []Edge) Solver { return NewHaoOrlin(n, e) },
	}
}

func TestKnownGraphs(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges []Edge
		s, t  int
		want  int
	}{
		{
			name: "single edge",
			n:    2, edges: []Edge{{0, 1, 1}},
			s: 0, t: 1, want: 1,
		},
		{
			name: "two disjoint paths",
			n:    4, edges: []Edge{{0, 1, 1}, {1, 3, 1}, {0, 2, 1}, {2, 3, 1}},
			s: 0, t: 3, want: 2,
		},
		{
			name: "bottleneck in middle",
			n:    4, edges: []Edge{{0, 1, 5}, {1, 2, 1}, {2, 3, 5}},
			s: 0, t: 3, want: 1,
		},
		{
			name: "no path",
			n:    3, edges: []Edge{{1, 0, 1}, {2, 1, 1}},
			s: 0, t: 2, want: 0,
		},
		{
			name: "classic CLRS",
			n:    6,
			edges: []Edge{
				{0, 1, 16}, {0, 2, 13}, {1, 3, 12}, {2, 1, 4},
				{2, 4, 14}, {3, 2, 9}, {3, 5, 20}, {4, 3, 7}, {4, 5, 4},
			},
			s: 0, t: 5, want: 23,
		},
		{
			name: "antiparallel unit pair",
			n:    2, edges: []Edge{{0, 1, 1}, {1, 0, 1}},
			s: 0, t: 1, want: 1,
		},
		{
			name: "zero capacity edge",
			n:    2, edges: []Edge{{0, 1, 0}},
			s: 0, t: 1, want: 0,
		},
	}
	for name, factory := range solvers() {
		for _, tt := range tests {
			t.Run(name+"/"+tt.name, func(t *testing.T) {
				got := factory(tt.n, tt.edges).MaxFlow(tt.s, tt.t)
				if got != tt.want {
					t.Fatalf("MaxFlow = %d, want %d", got, tt.want)
				}
			})
		}
	}
}

func TestRepeatedQueriesIndependent(t *testing.T) {
	// A solver must answer many queries on the same graph, each from zero
	// flow — the usage pattern of the connectivity pipeline.
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 2}}
	for name, factory := range solvers() {
		t.Run(name, func(t *testing.T) {
			s := factory(4, edges)
			for i := 0; i < 3; i++ {
				if got := s.MaxFlow(0, 3); got != 2 {
					t.Fatalf("query %d: MaxFlow(0,3) = %d, want 2", i, got)
				}
				if got := s.MaxFlow(0, 1); got != 1 {
					t.Fatalf("query %d: MaxFlow(0,1) = %d, want 1", i, got)
				}
				if got := s.MaxFlow(3, 0); got != 0 {
					t.Fatalf("query %d: MaxFlow(3,0) = %d, want 0", i, got)
				}
			}
		})
	}
}

// limitsAround lists the limits the MaxFlowLimit contract is pinned at for
// a pair whose max flow is kappa.
func limitsAround(kappa int) []int {
	return []int{0, 1, kappa - 1, kappa, kappa + 1, int(^uint(0) >> 1)}
}

// checkMaxFlowLimit asserts the MaxFlowLimit contract for one pair at
// every limit of limitsAround: HaoOrlin returns exactly min(limit, kappa)
// (bounded injection never lets more than that reach the root), Dinic a
// value in [min(limit, kappa), kappa] (its last augmenting path may carry
// more than the cap has left when capacities exceed 1).
func checkMaxFlowLimit(t testing.TB, name string, s Solver, src, tgt, kappa int) {
	t.Helper()
	for _, limit := range limitsAround(kappa) {
		if limit < 0 {
			continue
		}
		want := min(limit, kappa)
		got := s.MaxFlowLimit(src, tgt, limit)
		if _, exact := s.(*HaoOrlinSolver); exact && got != want {
			t.Fatalf("%s (%d,%d): MaxFlowLimit(%d) = %d, want exactly min(limit, %d) = %d",
				name, src, tgt, limit, got, kappa, want)
		}
		if got < want || got > kappa {
			t.Fatalf("%s (%d,%d): MaxFlowLimit(%d) = %d outside [%d, %d]", name, src, tgt, limit, got, want, kappa)
		}
	}
}

func TestMaxFlowLimit(t *testing.T) {
	// Wide graphs, ten disjoint two-arc paths from 0 to 1: unit capacities
	// (kappa 10), and capacities 1..10 narrowed to i/2+1 on the second arc
	// (kappa 1+2+2+3+3+4+4+5+5+6 = 35).
	n := 22
	var unit, capacitated []Edge
	for i := 0; i < 10; i++ {
		mid := 2 + i
		unit = append(unit, Edge{0, mid, 1}, Edge{mid, 1, 1})
		capacitated = append(capacitated, Edge{0, mid, int32(i + 1)}, Edge{mid, 1, int32((i+1)/2 + 1)})
	}
	graphs := []struct {
		name  string
		edges []Edge
		kappa int
	}{{"unit", unit, 10}, {"capacitated", capacitated, 35}}
	for name, factory := range solvers() {
		t.Run(name, func(t *testing.T) {
			for _, g := range graphs {
				s := factory(n, g.edges)
				checkMaxFlowLimit(t, name+" "+g.name, s, 0, 1, g.kappa)
				if got := s.MaxFlow(0, 1); got != g.kappa {
					t.Fatalf("%s: MaxFlow after limited queries = %d, want %d", g.name, got, g.kappa)
				}
			}
		})
	}
}

func TestRandomGraphsAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(12)
		m := r.Intn(4 * n)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, Edge{u, v, int32(1 + r.Intn(10))})
		}
		s, tgt := 0, n-1
		want := referenceMaxFlow(n, edges, s, tgt)
		for name, factory := range solvers() {
			if got := factory(n, edges).MaxFlow(s, tgt); got != want {
				t.Fatalf("trial %d: %s = %d, reference = %d (n=%d edges=%v)",
					trial, name, got, want, n, edges)
			}
		}
	}
}

func TestRandomUnitGraphsCrossCheck(t *testing.T) {
	// Unit-capacity digraphs shaped like Even transforms are the pipeline's
	// actual workload; cross-check the two implementations on them.
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(30)
		var pairs [][2]int
		for i := 0; i < n*3; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		edges := UnitEdges(pairs)
		d := NewDinic(n, edges)
		h := NewHaoOrlin(n, edges)
		for q := 0; q < 5; q++ {
			s, tgt := r.Intn(n), r.Intn(n)
			if s == tgt {
				continue
			}
			dv, hv := d.MaxFlow(s, tgt), h.MaxFlow(s, tgt)
			if dv != hv {
				t.Fatalf("trial %d query (%d,%d): dinic=%d hao-orlin=%d",
					trial, s, tgt, dv, hv)
			}
		}
	}
}

func TestFlowBoundedByDegrees(t *testing.T) {
	// Property: on a unit-capacity graph, maxflow(s,t) <= min(outdeg(s),
	// indeg(t)).
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(20)
		out := make([]int, n)
		in := make([]int, n)
		seen := map[[2]int]bool{}
		var pairs [][2]int
		for i := 0; i < n*2; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			pairs = append(pairs, [2]int{u, v})
			out[u]++
			in[v]++
		}
		d := NewDinic(n, UnitEdges(pairs))
		s, tgt := 0, n-1
		flow := d.MaxFlow(s, tgt)
		bound := out[s]
		if in[tgt] < bound {
			bound = in[tgt]
		}
		if flow > bound {
			t.Fatalf("flow %d exceeds degree bound %d", flow, bound)
		}
	}
}

func TestInvalidQueriesPanic(t *testing.T) {
	for name, factory := range solvers() {
		s := factory(3, []Edge{{0, 1, 1}})
		for _, q := range [][2]int{{0, 0}, {-1, 2}, {0, 3}} {
			q := q
			t.Run(name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("query %v should panic", q)
					}
				}()
				s.MaxFlow(q[0], q[1])
			})
		}
	}
}

func TestInvalidEdgesPanic(t *testing.T) {
	t.Run("out of range", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewDinic(2, []Edge{{0, 5, 1}})
	})
	t.Run("negative capacity", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewDinic(2, []Edge{{0, 1, -1}})
	})
}

// TestAlgorithmNewSolver pins the enum's names and its mapping to
// solvers, including that a value outside the enum panics instead of
// silently building a Dinic solver.
func TestAlgorithmNewSolver(t *testing.T) {
	if Dinic.String() != "dinic" || HaoOrlin.String() != "hao-orlin" {
		t.Error("String() names wrong")
	}
	edges := []Edge{{0, 1, 1}}
	if _, ok := Dinic.NewSolver(2, edges).(*DinicSolver); !ok {
		t.Error("Dinic.NewSolver wrong type")
	}
	if _, ok := HaoOrlin.NewSolver(2, edges).(*HaoOrlinSolver); !ok {
		t.Error("HaoOrlin.NewSolver wrong type")
	}
	for _, a := range []Algorithm{0, -1, HaoOrlin + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v.NewSolver did not panic", a)
				}
			}()
			a.NewSolver(2, edges)
		}()
	}
}

func TestLargeUnitGraphSmoke(t *testing.T) {
	// A denser random unit graph, to exercise global relabeling.
	r := rand.New(rand.NewSource(31337))
	n := 300
	var pairs [][2]int
	for i := 0; i < n*20; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	edges := UnitEdges(pairs)
	d := NewDinic(n, edges)
	h := NewHaoOrlin(n, edges)
	for q := 0; q < 10; q++ {
		s, tgt := r.Intn(n), r.Intn(n)
		if s == tgt {
			continue
		}
		if dv, hv := d.MaxFlow(s, tgt), h.MaxFlow(s, tgt); dv != hv {
			t.Fatalf("query (%d,%d): dinic=%d hao-orlin=%d", s, tgt, dv, hv)
		}
	}
}
