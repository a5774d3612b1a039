package connectivity

import (
	"math/rand"
	"testing"

	"kadre/internal/graph"
)

func TestPairCutCutVertex(t *testing.T) {
	// Two K4s joined at vertex 3: the only cut between the halves is {3}.
	g := undirected(7, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{3, 4}, {3, 5}, {3, 6}, {4, 5}, {4, 6}, {5, 6},
	})
	eng := MustNewEngine(EngineOptions{Workers: 1})
	eng.Bind(g)
	cut, err := eng.PairCut(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 1 || cut[0] != 3 {
		t.Fatalf("cut = %v, want [3]", cut)
	}
}

func TestPairCutMatchesKappa(t *testing.T) {
	// Property: |PairCut(v,w)| == kappa(v,w), and removing the cut
	// disconnects w from v.
	r := rand.New(rand.NewSource(44))
	eng := MustNewEngine(EngineOptions{Workers: 1})
	for trial := 0; trial < 25; trial++ {
		n := 6 + r.Intn(12)
		g := graph.NewDigraph(n)
		for i := 0; i < n*3; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		eng.Bind(g)
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if v == w || g.HasEdge(v, w) {
					continue
				}
				kappa, err := Pair(g, v, w)
				if err != nil {
					t.Fatal(err)
				}
				cut, err := eng.PairCut(v, w)
				if err != nil {
					t.Fatal(err)
				}
				if len(cut) != kappa {
					t.Fatalf("trial %d pair (%d,%d): |cut|=%d kappa=%d", trial, v, w, len(cut), kappa)
				}
				// Removing the cut must destroy all v->w paths.
				reduced, mapping := RemoveVertices(g, cut)
				if mapping[v] < 0 || mapping[w] < 0 {
					t.Fatal("cut contained an endpoint")
				}
				if kappa > 0 && reachable(reduced, mapping[v], mapping[w]) {
					t.Fatalf("trial %d pair (%d,%d): cut %v does not disconnect", trial, v, w, cut)
				}
			}
		}
	}
}

func reachable(g *graph.Digraph, s, t int) bool {
	seen := make([]bool, g.N())
	seen[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == t {
			return true
		}
		for _, v := range g.Successors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return false
}

func TestPairCutErrors(t *testing.T) {
	eng := MustNewEngine(EngineOptions{Workers: 1})
	eng.Bind(undirected(3, [][2]int{{0, 1}, {1, 2}}))
	if _, err := eng.PairCut(0, 0); err == nil {
		t.Error("identical endpoints should fail")
	}
	if _, err := eng.PairCut(0, 1); err == nil {
		t.Error("adjacent pair should fail")
	}
	if _, err := eng.PairCut(0, 9); err == nil {
		t.Error("out of range should fail")
	}
}

func TestGraphCut(t *testing.T) {
	// Petersen graph: kappa = 3, so the optimal attack compromises 3
	// nodes and partitions the network; any 2 leave it connected.
	g := petersen()
	cut, pair, ok, err := GraphCut(g, Query{SampleFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected a cut")
	}
	if len(cut) != 3 {
		t.Fatalf("cut size %d, want kappa=3", len(cut))
	}
	reduced, mapping := RemoveVertices(g, cut)
	if reachable(reduced, mapping[pair[0]], mapping[pair[1]]) {
		t.Fatal("graph cut does not disconnect its witness pair")
	}
	// Removing any 2 of the 3 keeps the graph connected (r = kappa-1 = 2).
	for drop := 0; drop < 3; drop++ {
		partial := append([]int(nil), cut[:drop]...)
		partial = append(partial, cut[drop+1:]...)
		reduced, _ := RemoveVertices(g, partial)
		if analyze(reduced, EngineOptions{}, Query{SampleFraction: 1.0, MinOnly: true}).Min == 0 {
			t.Fatalf("removing only 2 cut nodes %v disconnected the graph", partial)
		}
	}
}

func TestGraphCutComplete(t *testing.T) {
	_, _, ok, err := GraphCut(completeGraph(5), Query{SampleFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("complete graph has no vertex cut")
	}
}

func TestRemoveVertices(t *testing.T) {
	g := undirected(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	reduced, mapping := RemoveVertices(g, []int{2})
	if reduced.N() != 4 {
		t.Fatalf("reduced N = %d", reduced.N())
	}
	if mapping[2] != -1 {
		t.Fatal("removed vertex not marked")
	}
	if reduced.HasEdge(mapping[1], mapping[3]) {
		t.Fatal("phantom edge across removed vertex")
	}
	if !reduced.HasEdge(mapping[0], mapping[1]) || !reduced.HasEdge(mapping[3], mapping[4]) {
		t.Fatal("surviving edges lost")
	}
	// Removing nothing is a clean copy.
	same, m := RemoveVertices(g, nil)
	if same.N() != 5 || same.M() != g.M() || m[4] != 4 {
		t.Fatal("no-op removal broke the graph")
	}
}
