package connectivity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
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
	cut, pair, ok, err := graphCut(g, Query{SampleFraction: 1.0})
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
	_, _, ok, err := graphCut(completeGraph(5), Query{SampleFraction: 1.0})
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

// cutReference is PairCut's reference: Dinic on the cut-mode network of
// g — the Even transform with internal edges at capacity 1 and original
// edges at n+1, so every minimum cut consists of internal edges — run to
// a maximum flow, and the vertices whose internal edge crosses from the
// residual-reachable side to the rest.
type cutReference struct {
	g     *graph.Digraph
	dinic *maxflow.DinicSolver
}

func newCutReference(g *graph.Digraph) cutReference {
	even := graph.EvenEdges(g)
	edges := make([]maxflow.Edge, len(even))
	for i, e := range even {
		c := int32(g.N() + 1)
		if i < g.N() { // the internal edges come first
			c = 1
		}
		edges[i] = maxflow.Edge{U: e.U, V: e.V, Cap: c}
	}
	return cutReference{g: g, dinic: maxflow.NewDinic(2*g.N(), edges)}
}

func (r cutReference) cut(v, w int) []int {
	r.dinic.MaxFlow(graph.Out(v), graph.In(w))
	reach := r.dinic.ResidualReachable(graph.Out(v))
	var cut []int
	for u := 0; u < r.g.N(); u++ {
		if u != v && u != w && reach[graph.In(u)] && !reach[graph.Out(u)] {
			cut = append(cut, u)
		}
	}
	return cut
}

// slotCopy returns g with the vertices vacant marks stripped of their
// edges — a stable-slot graph — its active vertices in an order r
// shuffles, and the dense graph that order compacts it to.
func slotCopy(g *graph.Digraph, vacant []bool, r *rand.Rand) (slotG *graph.Digraph, order []int, dense *graph.Digraph) {
	slotG = graph.NewDigraph(g.N())
	for _, e := range g.Edges() {
		if !vacant[e.U] && !vacant[e.V] {
			slotG.AddEdge(e.U, e.V)
		}
	}
	rank := make([]int, g.N())
	for v := range rank {
		if !vacant[v] {
			order = append(order, v)
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, v := range order {
		rank[v] = i
	}
	dense = graph.NewDigraph(len(order))
	for _, e := range slotG.Edges() {
		dense.AddEdge(rank[e.U], rank[e.V])
	}
	return slotG, order, dense
}

// checkPairCuts holds PairCut to the Dinic reference on every
// non-adjacent pair of the compacted graph dense, under a dense Bind of
// it and under a masked BindSlots of slotG and order, and returns how
// many of the cuts were non-empty.
func checkPairCuts(t *testing.T, label string, slotG *graph.Digraph, order []int, dense *graph.Digraph) int {
	t.Helper()
	ref := newCutReference(dense)
	onDense, onSlots := MustNewEngine(EngineOptions{Workers: 1}), MustNewEngine(EngineOptions{Workers: 1})
	onDense.Bind(dense)
	onSlots.BindSlots(slotG, order)
	cuts := 0
	for v := 0; v < dense.N(); v++ {
		for w := 0; w < dense.N(); w++ {
			if v == w || dense.HasEdge(v, w) {
				continue
			}
			want := ref.cut(v, w)
			for _, eng := range []*Engine{onDense, onSlots} {
				got, err := eng.PairCut(v, w)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: masked %v PairCut(%d, %d) = %v %v, Dinic %v", label, eng.masked, v, w, got, err, want)
				}
			}
			if len(want) > 0 {
				cuts++
			}
		}
	}
	return cuts
}

// TestPairCutMatchesDinic is the cut's reference test: on random digraphs
// either side of the 64-vertex word boundary, on Kademlia-shaped graphs
// and on a churned slot world, each with and without vacant slots,
// PairCut returns exactly the source-minimal minimum cut Dinic's residual
// reachability gives — under a dense and under a masked binding. The
// Dinic reference dominates the cost, so -short (the race pass) keeps one
// seed, the smaller graphs and only the vacant-slot variant.
func TestPairCutMatchesDinic(t *testing.T) {
	seeds, kadN, shapes := int64(2), 80, [][2]int{{8, 20}, {20, 80}, {63, 250}, {64, 400}, {65, 500}, {70, 300}}
	rates := []float64{0, 0.15}
	if testing.Short() {
		seeds, kadN, shapes = 1, 60, [][2]int{{8, 20}, {20, 80}, {63, 200}, {65, 260}}
		rates = rates[1:]
	}
	cuts := 0
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		names, graphs := []string{"kad-shaped"}, []*graph.Digraph{kadShapedGraph(seed, kadN, 4, 32)}
		for _, shape := range shapes {
			names = append(names, fmt.Sprintf("random n %d m %d", shape[0], shape[1]))
			graphs = append(graphs, randomDigraph(seed, shape[0], shape[1]))
		}
		for i, g := range graphs {
			name := names[i]
			for _, rate := range rates {
				vacant := make([]bool, g.N())
				for v := range vacant {
					vacant[v] = r.Float64() < rate
				}
				slotG, order, dense := slotCopy(g, vacant, r)
				cuts += checkPairCuts(t, fmt.Sprintf("seed %d %s vacancy %v", seed, name, rate), slotG, order, dense)
			}
		}
		w := newSlotWorld(seed, 40, 5)
		w.capture()
		for i := 0; i < 8; i++ {
			w.leave()
		}
		w.join(5)
		slotG, order, dense := w.capture()
		cuts += checkPairCuts(t, fmt.Sprintf("slot world %d", seed), slotG, order, dense)
	}
	if cuts == 0 {
		t.Fatal("every cut was empty: the graphs do not exercise the cut")
	}
}

// FuzzPairCutVsDinic decodes a byte string into a graph with vacant
// vertices (see decodePathCase) and holds PairCut to the Dinic reference
// on every pair, under a dense and under a masked binding.
func FuzzPairCutVsDinic(f *testing.F) {
	f.Add([]byte{7, 1, 0, 40, 3})
	f.Add([]byte{62, 2, 40, 120, 5})
	f.Add([]byte{66, 3, 60, 160, 9})
	f.Add([]byte{10, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 0, 4, 4, 3, 3, 5, 5, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodePathCase(data)
		slotG, order, dense := slotCopy(c.g, c.vacant, rand.New(rand.NewSource(c.seed)))
		checkPairCuts(t, fmt.Sprintf("%x", data), slotG, order, dense)
	})
}
