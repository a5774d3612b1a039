package connectivity

import (
	"math"
	"math/rand"
	"testing"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// Test graph constructors.

func undirected(n int, pairs [][2]int) *graph.Digraph {
	g := graph.NewDigraph(n)
	for _, p := range pairs {
		g.AddEdge(p[0], p[1])
		g.AddEdge(p[1], p[0])
	}
	return g
}

func completeGraph(n int) *graph.Digraph {
	g := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func cycle(n int) *graph.Digraph {
	var pairs [][2]int
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]int{i, (i + 1) % n})
	}
	return undirected(n, pairs)
}

// petersen builds the Petersen graph, a classic 3-connected graph.
func petersen() *graph.Digraph {
	var pairs [][2]int
	for i := 0; i < 5; i++ {
		pairs = append(pairs, [2]int{i, (i + 1) % 5})     // outer C5
		pairs = append(pairs, [2]int{i, i + 5})           // spokes
		pairs = append(pairs, [2]int{i + 5, (i+2)%5 + 5}) // inner pentagram
	}
	return undirected(10, pairs)
}

// hypercube builds the d-dimensional hypercube, which is d-connected.
func hypercube(d int) *graph.Digraph {
	n := 1 << d
	var pairs [][2]int
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << b)
			if v < w {
				pairs = append(pairs, [2]int{v, w})
			}
		}
	}
	return undirected(n, pairs)
}

// analyze runs q on a throwaway engine built from eo and bound to g — the
// tests' one-shot form where the worker count matters (the package-level
// Analyze always takes the defaults).
func analyze(g *graph.Digraph, eo EngineOptions, q Query) Result {
	eng := MustNewEngine(eo)
	eng.Bind(g)
	return eng.Analyze(q)
}

// fullSweep is the engine's exact n(n-1) analysis of g.
func fullSweep(g *graph.Digraph) Result {
	return analyze(g, EngineOptions{}, Query{SampleFraction: 1.0})
}

func TestKnownConnectivities(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Digraph
		want int
	}{
		{"cycle C5", cycle(5), 2},
		{"cycle C6", cycle(6), 2},
		{"cycle C8", cycle(8), 2},
		{"complete K4", completeGraph(4), 3},
		{"petersen", petersen(), 3},
		{"hypercube Q3", hypercube(3), 3},
		{"hypercube Q4", hypercube(4), 4},
		{"path P4", undirected(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}), 1},
		{"star S5", undirected(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}), 1},
		{"disconnected", undirected(4, [][2]int{{0, 1}, {2, 3}}), 0},
		{"isolated vertex", undirected(3, [][2]int{{0, 1}}), 0},
		{
			// Two K4s sharing a single cut vertex.
			"two cliques cut vertex",
			undirected(7, [][2]int{
				{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
				{3, 4}, {3, 5}, {3, 6}, {4, 5}, {4, 6}, {5, 6},
			}),
			1,
		},
	}
	// Every known kappa must come out of the engine, whose sweeps run on
	// Hao–Orlin, and out of the reference sweep on Dinic.
	sweeps := []struct {
		name string
		full func(*graph.Digraph) Result
	}{
		{"dinic", func(g *graph.Digraph) Result {
			return referenceAnalyze(referenceOptions{Query: Query{SampleFraction: 1.0}}, g)
		}},
		{"hao-orlin", fullSweep},
	}
	for _, sweep := range sweeps {
		for _, tt := range tests {
			t.Run(sweep.name+"/"+tt.name, func(t *testing.T) {
				res := sweep.full(tt.g)
				if res.Min != tt.want {
					t.Fatalf("kappa = %d, want %d (result %+v)", res.Min, tt.want, res)
				}
			})
		}
	}
}

func TestCompleteGraph(t *testing.T) {
	res := fullSweep(completeGraph(6))
	if !res.Complete || res.Min != 5 {
		t.Fatalf("K6: %+v, want complete with kappa 5", res)
	}
}

func TestTinyGraphs(t *testing.T) {
	if res := fullSweep(graph.NewDigraph(0)); res.Min != 0 || !res.Complete {
		t.Errorf("empty graph: %+v", res)
	}
	if res := fullSweep(graph.NewDigraph(1)); res.Min != 0 || !res.Complete {
		t.Errorf("single vertex: %+v", res)
	}
	if res := fullSweep(graph.NewDigraph(2)); res.Min != 0 {
		t.Errorf("two isolated vertices: %+v", res)
	}
}

func TestKCompleteMinusEdge(t *testing.T) {
	// K5 minus one edge: the only non-adjacent pair has kappa = 3.
	g := completeGraph(5)
	g2 := graph.NewDigraph(5)
	for _, e := range g.Edges() {
		if e.U == 0 && e.V == 1 {
			continue
		}
		g2.AddEdge(e.U, e.V)
	}
	res := fullSweep(g2)
	if res.Min != 3 {
		t.Fatalf("kappa(K5 - e) = %d, want 3", res.Min)
	}
	if res.Pairs != 1 {
		t.Fatalf("evaluated %d pairs, want 1 (only the non-adjacent pair)", res.Pairs)
	}
	if res.MinPair != [2]int{0, 1} {
		t.Fatalf("MinPair = %v", res.MinPair)
	}
}

func TestDirectedAsymmetry(t *testing.T) {
	// Directed cycle: every pair connected by exactly one directed path.
	n := 5
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	if res := fullSweep(g); res.Min != 1 {
		t.Fatalf("directed C5 kappa = %d, want 1", res.Min)
	}
	// Remove one arc: some ordered pairs become unreachable -> kappa 0.
	g2 := graph.NewDigraph(n)
	for i := 0; i < n-1; i++ {
		g2.AddEdge(i, (i+1)%n)
	}
	if res := fullSweep(g2); res.Min != 0 {
		t.Fatalf("directed path kappa = %d, want 0", res.Min)
	}
}

func TestEvenTransformPaperExample(t *testing.T) {
	// Figure 1's point: a graph where the plain max flow from a to i is 3
	// but the vertex connectivity kappa(a,i) is 1, because all paths share
	// one cut vertex. Vertex 4 ("e") is the bottleneck.
	g := graph.NewDigraph(9)
	for _, v := range []int{1, 2, 3} {
		g.AddEdge(0, v) // a -> b,c,d
		g.AddEdge(v, 4) // b,c,d -> e
	}
	for _, v := range []int{5, 6, 7} {
		g.AddEdge(4, v) // e -> f,g,h
		g.AddEdge(v, 8) // f,g,h -> i
	}
	// Plain max flow on the untransformed graph: 3 edge-disjoint paths.
	var raw []maxflow.Edge
	for _, e := range g.Edges() {
		raw = append(raw, maxflow.Edge{U: e.U, V: e.V, Cap: 1})
	}
	if f := maxflow.NewDinic(9, raw).MaxFlow(0, 8); f != 3 {
		t.Fatalf("raw max flow = %d, want 3", f)
	}
	// Vertex connectivity via Even's transformation: 1.
	k, err := Pair(g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("kappa(a,i) = %d, want 1", k)
	}
}

func TestPairErrors(t *testing.T) {
	g := undirected(3, [][2]int{{0, 1}, {1, 2}})
	if _, err := Pair(g, 0, 0); err == nil {
		t.Error("identical endpoints should fail")
	}
	if _, err := Pair(g, 0, 1); err == nil {
		t.Error("adjacent pair should fail")
	}
	if _, err := Pair(g, 0, 9); err == nil {
		t.Error("out of range should fail")
	}
	if k, err := Pair(g, 0, 2); err != nil || k != 1 {
		t.Errorf("kappa(0,2) = %d, %v; want 1", k, err)
	}
}

func TestMengersTheoremProperty(t *testing.T) {
	// kappa(v,w) <= min(outdeg(v), indeg(w)) for all non-adjacent pairs on
	// random digraphs.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 6 + r.Intn(10)
		g := graph.NewDigraph(n)
		for i := 0; i < n*3; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		in := g.InDegrees()
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if v == w || g.HasEdge(v, w) {
					continue
				}
				k, err := Pair(g, v, w)
				if err != nil {
					t.Fatal(err)
				}
				bound := g.OutDegree(v)
				if in[w] < bound {
					bound = in[w]
				}
				if k > bound {
					t.Fatalf("kappa(%d,%d)=%d exceeds degree bound %d", v, w, k, bound)
				}
			}
		}
	}
}

func TestSamplingNeverUnderestimates(t *testing.T) {
	// The sampled min is a min over a subset of pairs, so it can only be
	// >= the full min.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 20 + r.Intn(20)
		g := graph.NewDigraph(n)
		for i := 0; i < n*4; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				g.AddEdge(v, u)
			}
		}
		fr, sr := fullSweep(g), analyze(g, EngineOptions{}, Query{SampleFraction: 0.1})
		if sr.Min < fr.Min {
			t.Fatalf("sampled min %d below full min %d", sr.Min, fr.Min)
		}
		if sr.Pairs >= fr.Pairs {
			t.Fatalf("sampling did not reduce work: %d vs %d pairs", sr.Pairs, fr.Pairs)
		}
	}
}

func TestSamplingFindsMinOnDegreeBoundGraphs(t *testing.T) {
	// When the minimum cut isolates the minimum-degree vertex — the
	// typical case in Kademlia graphs, per the paper — smallest-out-degree
	// sampling finds the exact minimum.
	g := hypercube(4) // 16 vertices, kappa 4
	// Weaken one vertex: drop the undirected edges {0,1} and {0,2}, so
	// vertex 0 keeps only 2 of its 4 neighbours.
	weak := graph.NewDigraph(16)
	dropped := map[[2]int]bool{{0, 1}: true, {1, 0}: true, {0, 2}: true, {2, 0}: true}
	for _, e := range g.Edges() {
		if dropped[[2]int{e.U, e.V}] {
			continue
		}
		weak.AddEdge(e.U, e.V)
	}
	fr := fullSweep(weak)
	sr := analyze(weak, EngineOptions{}, Query{SampleFraction: 0.07}) // 2 sources
	if fr.Min != 2 {
		t.Fatalf("full min = %d, want 2", fr.Min)
	}
	if sr.Min != fr.Min {
		t.Fatalf("sampled min %d != full min %d", sr.Min, fr.Min)
	}
	if sr.Sources != 2 {
		t.Fatalf("Sources = %d, want 2", sr.Sources)
	}
}

func TestMinOnlyMode(t *testing.T) {
	res := analyze(petersen(), EngineOptions{}, Query{SampleFraction: 1.0, MinOnly: true})
	if res.Min != 3 {
		t.Fatalf("MinOnly kappa = %d, want 3", res.Min)
	}
	if !math.IsNaN(res.Avg) {
		t.Fatalf("MinOnly Avg = %v, want NaN", res.Avg)
	}
}

func TestWorkersProduceSameResult(t *testing.T) {
	g := petersen()
	for _, workers := range []int{1, 2, 8} {
		if res := analyze(g, EngineOptions{Workers: workers}, Query{SampleFraction: 1.0}); res.Min != 3 {
			t.Fatalf("workers=%d: kappa = %d, want 3", workers, res.Min)
		}
	}
}

func TestAvgReasonable(t *testing.T) {
	// On C5, every non-adjacent pair has kappa exactly 2, so avg = 2.
	res := fullSweep(cycle(5))
	if res.Avg != 2.0 {
		t.Fatalf("avg = %v, want 2.0", res.Avg)
	}
	// C5 has 5*4=20 ordered pairs, 10 of them adjacent.
	if res.Pairs != 10 {
		t.Fatalf("pairs = %d, want 10", res.Pairs)
	}
}

// TestOneShotValidation pins the input checks of the throwaway-per-call
// entry points: a negative or NaN sample fraction is an error from both
// Analyze and GraphCut (NaN would otherwise slip through sampleCount's
// range guard), a valid one answers exactly like a held engine, and
// NewEngine accepts the zero options, defaulting the worker count.
func TestOneShotValidation(t *testing.T) {
	g := petersen()
	for _, c := range []float64{-0.5, math.NaN(), math.Inf(-1)} {
		if _, err := Analyze(g, Query{SampleFraction: c}); err == nil {
			t.Errorf("Analyze accepted sample fraction %v", c)
		}
		if _, _, _, err := GraphCut(g, Query{SampleFraction: c}); err == nil {
			t.Errorf("GraphCut accepted sample fraction %v", c)
		}
	}
	for _, c := range []float64{0, 0.3, 1, 7} {
		q := Query{SampleFraction: c, MinOnly: true}
		got, err := Analyze(g, q)
		if err != nil {
			t.Fatalf("Analyze rejected sample fraction %v: %v", c, err)
		}
		requireSameResult(t, "one-shot", got, analyze(g, EngineOptions{Workers: 1}, q))
	}
	if eng, err := NewEngine(EngineOptions{}); err != nil || eng.maxWorkers < 1 {
		t.Errorf("NewEngine(EngineOptions{}) = %v, %v; want an engine with at least one worker", eng, err)
	}
}

func TestResilienceEquations(t *testing.T) {
	// Equation 2: kappa > r >= a.
	if Resilience(5) != 4 {
		t.Error("kappa 5 tolerates 4 compromised nodes")
	}
	if Resilience(0) != -1 {
		t.Error("disconnected network has resilience -1")
	}
	if RequiredConnectivity(4) != 5 {
		t.Error("tolerating 4 attackers needs kappa >= 5")
	}
}

// minDegree returns min(min out-degree, min in-degree), a cheap upper
// bound on the vertex connectivity of any digraph: removing all of a
// minimum-degree vertex's neighbours isolates it.
func minDegree(g *graph.Digraph) int {
	d := g.N()
	for v, in := range g.InDegrees() {
		d = min(d, g.OutDegree(v), in)
	}
	return d
}

func TestMinDegreeBound(t *testing.T) {
	if minDegree(cycle(5)) != 2 {
		t.Error("C5 min degree = 2")
	}
	if minDegree(graph.NewDigraph(0)) != 0 {
		t.Error("empty graph min degree = 0")
	}
	// kappa <= minDegree on arbitrary graphs.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 6 + r.Intn(10)
		g := graph.NewDigraph(n)
		for i := 0; i < n*3; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		res := fullSweep(g)
		if res.Complete {
			continue
		}
		if res.Min > minDegree(g) {
			t.Fatalf("kappa %d exceeds min degree %d", res.Min, minDegree(g))
		}
	}
}
