package connectivity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// checkPaths returns an error unless p's flow is p.flow vertex-disjoint
// s->t paths along edges of the bound graph — every hop an edge with
// matching pred/succ links, no vertex on two paths, no link on s or t —
// plus, only if cycles is set, vertex-disjoint cycles that an
// augmentation circulated: worth nothing, and dropped by the next
// retarget. Nothing else may carry a link or a used bit.
func (p *pathSolver) checkPaths(cycles bool) error {
	s, t := p.s, p.t
	if p.pred[s] != -1 || p.succ[s] != -1 || p.pred[t] != -1 || p.succ[t] != -1 {
		return fmt.Errorf("source %d or sink %d carries links: pred %d/%d succ %d/%d",
			s, t, p.pred[s], p.pred[t], p.succ[s], p.succ[t])
	}
	n := p.g.N()
	on := make([]bool, n)
	paths := 0
	for h := 0; h < n; h++ {
		if int(p.pred[h]) != s {
			continue
		}
		paths++
		prev, v := s, h
		for {
			if !p.g.HasEdge(prev, v) {
				return fmt.Errorf("path hop %d->%d is not an edge", prev, v)
			}
			if v == t {
				break
			}
			if on[v] {
				return fmt.Errorf("vertex %d lies on two paths", v)
			}
			on[v] = true
			if int(p.pred[v]) != prev {
				return fmt.Errorf("vertex %d has pred %d, reached from %d", v, p.pred[v], prev)
			}
			if p.succ[v] < 0 {
				return fmt.Errorf("path through %d stops short of sink %d", v, t)
			}
			prev, v = v, int(p.succ[v])
		}
	}
	if paths != p.flow {
		return fmt.Errorf("%d paths leave source %d, flow is %d", paths, s, p.flow)
	}
	cyc := make([]bool, n)
	for v := 0; v < n; v++ {
		if on[v] || cyc[v] {
			continue
		}
		if !hasBit(p.used, v) {
			if v != s && v != t && (p.pred[v] != -1 || p.succ[v] != -1) {
				return fmt.Errorf("free vertex %d links pred %d succ %d", v, p.pred[v], p.succ[v])
			}
			continue
		}
		if !cycles {
			return fmt.Errorf("vertex %d is used off the paths", v)
		}
		for u := v; !cyc[u]; u = int(p.succ[u]) {
			cyc[u] = true
			next := int(p.succ[u])
			if next < 0 || on[next] || !hasBit(p.used, next) || int(p.pred[next]) != u || !p.g.HasEdge(u, next) {
				return fmt.Errorf("vertex %d is used off the paths but its succ chain breaks at %d->%d", v, u, next)
			}
		}
	}
	for v := 0; v < n; v++ {
		if on[v] && !hasBit(p.used, v) {
			return fmt.Errorf("path vertex %d is not marked used", v)
		}
	}
	return nil
}

// inRows returns transposeRows(g), the table a pathSolver binds to,
// after checking every bit of it against HasEdge.
func inRows(t *testing.T, g *graph.Digraph) []uint64 {
	t.Helper()
	rows := transposeRows(g, nil)
	words := (g.N() + 63) >> 6
	for v := 0; v < g.N(); v++ {
		for u := 0; u < g.N(); u++ {
			if hasBit(rows[v*words:(v+1)*words], u) != g.HasEdge(u, v) {
				t.Fatalf("transposeRows: bit %d of row %d disagrees with HasEdge(%d, %d)", u, v, u, v)
			}
		}
	}
	return rows
}

// checkPathSolver holds the solver to Dinic on every non-adjacent pair of
// g, running each source against its sinks in ascending order, along the
// similarity chain the engine's exact sweeps follow, and in shuffled
// order, and then once more in ascending order with limits cycling below,
// at and above kappa against Dinic's MaxFlowLimit — the capped form the
// Min sweeps run — with the path invariant checked after every retarget,
// fill and augmentation. It returns the searches the solver ran.
func checkPathSolver(t *testing.T, label string, g *graph.Digraph, r *rand.Rand) int {
	t.Helper()
	in := inRows(t, g)
	var ps pathSolver
	ps.bind(g, in)
	ps.afterStep = func(augmented bool) {
		if err := ps.checkPaths(augmented); err != nil {
			t.Fatalf("%s: source %d sink %d: %v", label, ps.s, ps.t, err)
		}
	}
	chain := similarityChain(nil, in, (g.N()+63)>>6, g.N(), nil)
	dinic := maxflow.NewDinic(2*g.N(), referenceEvenUnitEdges(g))
	for s := 0; s < g.N(); s++ {
		want := kappaFrom(g, s)
		var sinks []int
		for v, k := range want {
			if k >= 0 {
				sinks = append(sinks, v)
			}
		}
		for pass := 0; pass < 3; pass++ {
			switch pass {
			case 1:
				sinks = sinks[:0]
				for _, v := range chain {
					if want[v] >= 0 {
						sinks = append(sinks, int(v))
					}
				}
			case 2:
				r.Shuffle(len(sinks), func(i, j int) { sinks[i], sinks[j] = sinks[j], sinks[i] })
			}
			ps.source(s)
			for _, v := range sinks {
				if got := ps.kappa(v, math.MaxInt); got != want[v] {
					t.Fatalf("%s: kappa(%d, %d) = %d, Dinic %d (pass %d)", label, s, v, got, want[v], pass)
				}
			}
		}
		slices.Sort(sinks)
		ps.source(s)
		for i, v := range sinks {
			limit := max(want[v]-1+i%3, 0)
			wantLimited := dinic.MaxFlowLimit(graph.Out(s), graph.In(v), limit)
			if wantLimited != min(want[v], limit) {
				t.Fatalf("%s: Dinic MaxFlowLimit(%d, %d, %d) = %d, kappa %d", label, s, v, limit, wantLimited, want[v])
			}
			if got := ps.kappa(v, limit); got != wantLimited {
				t.Fatalf("%s: kappa(%d, %d) at limit %d = %d, Dinic %d", label, s, v, limit, got, wantLimited)
			}
		}
	}
	return ps.augments
}

// TestPathSolverMatchesDinic is the solver's property test: random
// digraphs either side of the 64-vertex word boundary, Kademlia-shaped
// graphs, and stable-slot graphs with vacant slots, every source against
// every sink in three orders. The Dinic reference dominates the cost, so
// -short (the race pass) keeps one seed and the sparser shapes.
func TestPathSolverMatchesDinic(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	searches := 0
	seeds, shapes := int64(3), [][2]int{{8, 20}, {20, 120}, {64, 500}, {65, 900}, {70, 300}}
	if testing.Short() {
		seeds, shapes = 1, [][2]int{{8, 20}, {20, 120}, {70, 300}}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, shape := range shapes {
			searches += checkPathSolver(t, fmt.Sprintf("random seed %d n %d m %d", seed, shape[0], shape[1]),
				randomDigraph(seed, shape[0], shape[1]), r)
		}
		searches += checkPathSolver(t, fmt.Sprintf("kad-shaped seed %d", seed), kadShapedGraph(seed, 80, 4, 32), r)
		w := newSlotWorld(seed, 40, 5)
		w.capture()
		for i := 0; i < 8; i++ {
			w.leave()
		}
		w.join(5)
		slotG, order, dense := w.capture()
		if slotG.N() == len(order) {
			t.Fatalf("slot world %d has no vacant slot", seed)
		}
		searches += checkPathSolver(t, fmt.Sprintf("slot world %d", seed), slotG, r)
		eng := MustNewEngine(EngineOptions{Workers: 2})
		eng.BindSlots(slotG, order)
		q := Query{SampleFraction: 1}
		if got, want := eng.Analyze(q), referenceAnalyze(referenceOptions{Query: q}, dense); !sameResult(got, want) {
			t.Fatalf("slot world %d: engine %+v, reference %+v", seed, got, want)
		}
	}
	if searches == 0 {
		t.Fatal("no pair needed a search: the graphs do not exercise augmentation")
	}
}

// TestPathSolverWarmStartCases walks the retarget rules on a hand-built
// graph: a path cut at the new sink's in-neighbour, a path cut just
// before the new sink, a path dropped, and the old sink extending a path.
func TestPathSolverWarmStartCases(t *testing.T) {
	// 0 is the source; 1, 2, 3 its out-neighbours. 1->4->5, 2->5, 3->6->5,
	// 4->7, 5->7, 6->8, 8->7 and 5->8.
	g := graph.NewDigraph(9)
	for _, e := range [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 4}, {4, 5}, {2, 5}, {3, 6}, {6, 5},
		{4, 7}, {5, 7}, {6, 8}, {8, 7}, {5, 8},
	} {
		g.AddEdge(e[0], e[1])
	}
	in := inRows(t, g)
	var ps pathSolver
	ps.bind(g, in)
	ps.afterStep = func(augmented bool) {
		if err := ps.checkPaths(augmented); err != nil {
			t.Fatalf("source %d sink %d: %v", ps.s, ps.t, err)
		}
	}
	ps.source(0)
	for _, sink := range []int{5, 7, 8, 4, 6, 5, 7} {
		want := kappaFrom(g, 0)[sink]
		if got := ps.kappa(sink, math.MaxInt); got != want {
			t.Fatalf("kappa(0, %d) = %d, Dinic %d", sink, got, want)
		}
	}
}

// TestExactPairsSearchesAt800 is the stopwatch-free guard of the
// search's sink side at a size between the paper's two: an exact
// snapshot sweep (c = 0.02, one worker) of an 800-node Kademlia-shaped
// graph with k = 20 and 64-bit identifiers takes 9.58 searches per exact
// pair, which queue 1 056 out-halves. Without the sink side they queue
// 5 116, so the visits bound, about 25 % above the count, fails a search
// that loses it. -short skips the half-second sweep.
func TestExactPairsSearchesAt800(t *testing.T) {
	if testing.Short() {
		t.Skip("an 800-node exact sweep; the full pass runs it")
	}
	eng := MustNewEngine(EngineOptions{Workers: 1})
	eng.Bind(kadShapedGraph(1, 800, 20, 64))
	eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.02, AvgSeed: 1})
	pairs := eng.SweepExact()
	if pairs == 0 {
		t.Fatal("no exact pair was swept")
	}
	perPair := float64(eng.SweepAugments()) / float64(pairs)
	visitsPerPair := float64(eng.SweepVisits()) / float64(pairs)
	t.Logf("%.2f searches and %.1f out-halves queued per exact pair over %d pairs", perPair, visitsPerPair, pairs)
	if perPair > 10 {
		t.Errorf("%.2f searches per exact pair, want <= 10", perPair)
	}
	if visitsPerPair > 1300 {
		t.Errorf("%.1f out-halves queued per exact pair, want <= 1300", visitsPerPair)
	}
}

// TestPairMatchesDinic holds connectivity.Pair, which transposes the
// graph's rows for its one solver, to Dinic on random graphs whose vertex
// counts sit either side of the 64- and 128-vertex word boundaries and
// whose vacant vertices — among them the last and first vertex of each
// word the graph has — are isolated: eight sources, an isolated one
// included, against every sink.
func TestPairMatchesDinic(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, n := range []int{63, 65, 127, 129} {
		vacant := []int{n / 2, 63, 64, 127, 128}
		for len(vacant) < n/10 {
			vacant = append(vacant, r.Intn(n))
		}
		g, _, _ := vacated(randomDigraph(int64(n), n, 6*n), vacant, r)
		for _, s := range append(r.Perm(n)[:7], vacant[0]) {
			for v, want := range kappaFrom(g, s) {
				if want < 0 {
					continue
				}
				if got, err := Pair(g, s, v); err != nil || got != want {
					t.Fatalf("n %d: Pair(%d, %d) = %d, %v; Dinic %d", n, s, v, got, err, want)
				}
			}
		}
	}
}

// pathCase is FuzzPathSolverVsDinic's and FuzzPairCutVsDinic's input: a
// graph whose vacant vertices are isolated, the vacancy mask, and the
// seed of the sink shuffle (or of the slot order).
type pathCase struct {
	g      *graph.Digraph
	vacant []bool
	seed   int64
}

// decodePathCase reads a vertex count (2..72, across the word boundary),
// a vacancy mask seed and rate, a random-edge density and the shuffle
// seed from the header, then one extra edge per following byte pair.
func decodePathCase(data []byte) pathCase {
	hdr := make([]byte, 5)
	copy(hdr, data)
	n := 2 + int(hdr[0])%71
	r := rand.New(rand.NewSource(int64(hdr[1])))
	vacant := make([]bool, n)
	c := pathCase{g: graph.NewDigraph(n), vacant: vacant, seed: int64(hdr[4])}
	for v := range vacant {
		vacant[v] = r.Intn(256) < int(hdr[2])/2
	}
	add := func(u, v int) {
		if u != v && !vacant[u] && !vacant[v] {
			c.g.AddEdge(u, v)
		}
	}
	for i := int(hdr[3]) * n / 16; i > 0; i-- {
		add(r.Intn(n), r.Intn(n))
	}
	for i := 5; i+1 < len(data); i += 2 {
		add(int(data[i])%n, int(data[i+1])%n)
	}
	return c
}

// FuzzPathSolverVsDinic decodes a byte string into a graph with vacant
// vertices and holds the solver to Dinic on every pair, sinks ascending,
// along the similarity chain and shuffled, and capped at limits around
// kappa, the path invariant checked after every step.
func FuzzPathSolverVsDinic(f *testing.F) {
	f.Add([]byte{7, 1, 0, 40, 3})
	f.Add([]byte{62, 2, 40, 120, 5})
	f.Add([]byte{66, 3, 60, 160, 9})
	f.Add([]byte{10, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 0, 4, 4, 3, 3, 5, 5, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodePathCase(data)
		checkPathSolver(t, fmt.Sprintf("%x", data), c.g, rand.New(rand.NewSource(c.seed)))
	})
}
