package connectivity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kadre/internal/graph"
)

// circulant returns the circulant digraph on n vertices with an edge
// v -> v+d (mod n) for every offset d: every vertex has the same out- and
// in-degree, so most pairs tie at the minimum connectivity.
func circulant(n int, offsets ...int) *graph.Digraph {
	g := graph.NewDigraph(n)
	for v := 0; v < n; v++ {
		for _, d := range offsets {
			g.AddEdge(v, (v+d)%n)
		}
	}
	return g
}

// vacated isolates the vacant vertices of g, as a stable-slot capture
// leaves vacant slots, and returns that slot graph, an order of the
// remaining slots shuffled by r (the capture's compaction map), and the
// dense graph that order compacts to.
func vacated(g *graph.Digraph, vacant []int, r *rand.Rand) (slotG *graph.Digraph, order []int, dense *graph.Digraph) {
	n := g.N()
	rank := make([]int, n)
	for v := range rank {
		if slices.Contains(vacant, v) {
			rank[v] = -1
		} else {
			order = append(order, v)
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, v := range order {
		rank[v] = i
	}
	slotG, dense = graph.NewDigraph(n), graph.NewDigraph(len(order))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if g.HasEdge(u, v) && rank[u] >= 0 && rank[v] >= 0 {
				slotG.AddEdge(u, v)
				dense.AddEdge(rank[u], rank[v])
			}
		}
	}
	return slotG, order, dense
}

// pairScan is the ascending per-pair reference of an exact sweep: every
// source against every non-adjacent sink, each pair solved alone by Pair,
// the minimum's pair the lexicographically smallest that attains it. It
// also returns how many pairs attain the minimum.
func pairScan(t *testing.T, g *graph.Digraph, sources []int) (Result, int) {
	t.Helper()
	n := g.N()
	out := Result{N: n, Min: n, MinPair: [2]int{-1, -1}, Sources: len(sources)}
	var sum int64
	ties := 0
	for _, s := range sources {
		for v := 0; v < n; v++ {
			if v == s || g.HasEdge(s, v) {
				continue
			}
			k, err := Pair(g, s, v)
			if err != nil {
				t.Fatal(err)
			}
			out.Pairs++
			sum += int64(k)
			switch {
			case k < out.Min:
				out.Min, out.MinPair, ties = k, [2]int{s, v}, 1
			case k == out.Min:
				ties++
				if lexLess([2]int{s, v}, out.MinPair) {
					out.MinPair = [2]int{s, v}
				}
			}
		}
	}
	out.Avg = float64(sum) / float64(out.Pairs)
	return out, ties
}

// TestExactSweepTiesMatchPairScan holds the exact sweep's tie rule to an
// ascending scan on graphs where many sinks share the minimum: circulant
// digraphs either side of the 64-vertex word boundary, a hypercube, and
// slot graphs with vacant slots under a shuffled compaction order. Exact
// tasks visit their sinks along the similarity chain, so only the
// explicit rule — the lowest target wins a tie — keeps Min, MinPair, Avg
// and Pairs equal to the per-pair Pair scan: for a full Analyze, for
// AnalyzeSnapshot's Avg, and for an Avg answered from the memo, whose
// rows must name the same target for their exact minimum. The work
// counters must not depend on the worker count.
func TestExactSweepTiesMatchPairScan(t *testing.T) {
	type tieCase struct {
		label string
		slotG *graph.Digraph // nil: bind dense
		order []int
		dense *graph.Digraph
	}
	r := rand.New(rand.NewSource(38))
	cases := []tieCase{
		{label: "circulant 40 {1,2,5}", dense: circulant(40, 1, 2, 5)},
		{label: "circulant 70 {1,3,4,9}", dense: circulant(70, 1, 3, 4, 9)},
		{label: "hypercube 6", dense: hypercube(6)},
	}
	slotG, order, dense := vacated(circulant(72, 1, 2, 4, 8), []int{3, 9, 10, 30, 64, 65, 71}, r)
	cases = append(cases, tieCase{"vacated circulant 72", slotG, order, dense})
	w := newSlotWorld(38, 50, 4)
	w.capture()
	for i := 0; i < 8; i++ {
		w.leave()
	}
	slotG, order, dense = w.capture()
	cases = append(cases, tieCase{"slot world", slotG, order, dense})

	for _, c := range cases {
		n := c.dense.N()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		wantFull, ties := pairScan(t, c.dense, all)
		if ties <= n {
			t.Fatalf("%s: only %d pairs attain the minimum %d", c.label, ties, wantFull.Min)
		}
		count := sampleCount(0.3, n)
		var augments, visits []int
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%s workers %d", c.label, workers)
			eng := MustNewEngine(EngineOptions{Workers: workers})
			if c.slotG == nil {
				eng.Bind(c.dense)
			} else {
				eng.BindSlots(c.slotG, c.order)
			}
			if got := eng.Analyze(Query{SampleFraction: 1}); !sameResult(got, wantFull) {
				t.Fatalf("%s: Analyze %+v, pair scan %+v", label, got, wantFull)
			}
			for i, seed := range []int64{1, 2, 1} {
				want, _ := pairScan(t, c.dense, rand.New(rand.NewSource(seed)).Perm(n)[:count])
				exact := eng.SweepExact()
				if got := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.3, AvgSeed: seed}).Avg; !sameResult(got, want) {
					t.Fatalf("%s seed %d: Avg %+v, pair scan %+v", label, seed, got, want)
				}
				if i == 2 && eng.SweepExact() != exact {
					t.Fatalf("%s: the repeated seed swept %d rows' pairs again", label, eng.SweepExact()-exact)
				}
			}
			// A memo row's exact minimum names the same lowest target.
			for s, row := range eng.rows[:n] {
				if r := row.res; row.gen == eng.gen && (r.exactMin != r.min || r.exactMinTgt != r.minPair[1]) {
					t.Fatalf("%s: row %d has exact minimum %d at %d, minimum %d at %v",
						label, s, r.exactMin, r.exactMinTgt, r.min, r.minPair)
				}
			}
			augments, visits = append(augments, eng.SweepAugments()), append(visits, eng.SweepVisits())
		}
		if augments[0] != augments[1] || visits[0] != visits[1] {
			t.Fatalf("%s: searches %v and out-halves queued %v differ across worker counts", c.label, augments, visits)
		}
	}
}

// hamming is the test-side distance between the in-neighbourhoods of the
// vertices a and b, read off HasEdge.
func hamming(g *graph.Digraph, a, b int) int {
	d := 0
	for u := 0; u < g.N(); u++ {
		if g.HasEdge(u, a) != g.HasEdge(u, b) {
			d++
		}
	}
	return d
}

// TestSimilarityChain checks the chain on its own, on dense graphs and on
// slot graphs with vacant slots: it is a permutation of the active ranks
// that starts at rank 0 and steps each time to the unvisited rank with
// the nearest in-neighbour row, the lowest such rank on a tie.
func TestSimilarityChain(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	w := newSlotWorld(7, 60, 5)
	w.capture()
	for i := 0; i < 9; i++ {
		w.leave()
	}
	worldG, worldOrder, _ := w.capture()
	vacG, vacOrder, _ := vacated(circulant(70, 1, 2, 5), []int{0, 6, 63, 64}, r)
	for _, c := range []struct {
		label string
		g     *graph.Digraph
		order []int
	}{
		{"kad-shaped", kadShapedGraph(7, 80, 4, 32), nil},
		{"circulant", circulant(66, 1, 2, 5), nil},
		{"slot world", worldG, worldOrder},
		{"vacated circulant", vacG, vacOrder},
		{"one vertex", graph.NewDigraph(1), nil},
	} {
		n := c.g.N()
		vtx := func(r int32) int { return int(r) }
		if c.order != nil {
			n = len(c.order)
			vtx = func(r int32) int { return c.order[r] }
		}
		chain := similarityChain(nil, transposeRows(c.g, nil), (c.g.N()+63)>>6, n, c.order)
		sorted := slices.Clone(chain)
		slices.Sort(sorted)
		for i, r := range sorted {
			if int(r) != i {
				t.Fatalf("%s: chain %v is not a permutation of 0..%d", c.label, chain, n-1)
			}
		}
		if chain[0] != 0 {
			t.Fatalf("%s: chain starts at rank %d, want 0", c.label, chain[0])
		}
		for i := 1; i < n; i++ {
			prev, got := vtx(chain[i-1]), chain[i]
			d := hamming(c.g, prev, vtx(got))
			for _, other := range chain[i+1:] {
				if od := hamming(c.g, prev, vtx(other)); od < d || od == d && other < got {
					t.Fatalf("%s: step %d goes to rank %d at distance %d, but rank %d is at %d",
						c.label, i, got, d, other, od)
				}
			}
		}
	}
}

// TestSimilarityChainLifetime pins when the engine builds the chain: once
// per binding generation, by its first exact sweep. An identical
// RebindSlots capture keeps the generation and so reuses the chain — a
// chain reversed in place survives it, and the answers do not move,
// because the sink order moves only the work. A capture that changes
// starts a new generation and rebuilds it, and Release drops it until the
// next exact sweep.
func TestSimilarityChainLifetime(t *testing.T) {
	w := newSlotWorld(11, 50, 5)
	gA, orderA, _ := w.capture()
	w.churn(8)
	w.leave()
	gB, orderB, denseB := w.capture()
	if gA.N() != gB.N() {
		t.Fatalf("slot count changed: %d -> %d", gA.N(), gB.N())
	}
	fresh := func(g *graph.Digraph, order []int) []int32 {
		return similarityChain(nil, transposeRows(g, nil), (g.N()+63)>>6, len(order), order)
	}
	exact := Query{SampleFraction: 1}
	eng := MustNewEngine(EngineOptions{Workers: 2})
	eng.BindSlots(gA, orderA)
	before := eng.Analyze(exact)
	if !slices.Equal(eng.chain, fresh(gA, orderA)) {
		t.Fatal("the first exact sweep did not build the chain of its binding")
	}
	slices.Reverse(eng.chain)
	reversed := slices.Clone(eng.chain)
	if !eng.RebindSlots(gA, graph.Delta{}, orderA) {
		t.Fatal("identical RebindSlots fell back to a full bind")
	}
	if got := eng.Analyze(exact); !sameResult(got, before) {
		t.Fatalf("reversed sink order: %+v, chain order %+v", got, before)
	}
	if !slices.Equal(eng.chain, reversed) {
		t.Fatal("an identical capture rebuilt the chain")
	}
	var delta graph.Delta
	graph.DiffSlotsInto(gA, gB, orderA, orderB, &delta)
	if !eng.RebindSlots(gB, delta, orderB) {
		t.Fatal("RebindSlots fell back to a full bind")
	}
	want := referenceAnalyze(referenceOptions{Query: exact}, denseB)
	if got := eng.Analyze(exact); !sameResult(got, want) {
		t.Fatalf("after rebind: %+v, reference %+v", got, want)
	}
	if !slices.Equal(eng.chain, fresh(gB, orderB)) {
		t.Fatal("a new generation did not rebuild the chain")
	}
	eng.Release()
	if eng.chain != nil {
		t.Fatal("Release kept the chain")
	}
	if got := eng.Analyze(exact); !sameResult(got, want) {
		t.Fatalf("after release: %+v, reference %+v", got, want)
	}
	if !slices.Equal(eng.chain, fresh(gB, orderB)) {
		t.Fatal("the exact sweep after a Release did not rebuild the chain")
	}
}

// TestMinOnlySweepBuildsNoChain: capped tasks scan their sinks in rank
// order, so Min-only analyses and cuts build the in-neighbour rows their
// path solvers read but not the exact tasks' sink chain. The binding's
// first exact sweep builds it.
func TestMinOnlySweepBuildsNoChain(t *testing.T) {
	g := kadShapedGraph(5, 60, 5, 32)
	for _, workers := range []int{1, 3} {
		eng := MustNewEngine(EngineOptions{Workers: workers})
		eng.Bind(g)
		eng.Analyze(Query{SampleFraction: 0.1, MinOnly: true})
		eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.2, MinOnly: true})
		if _, _, ok, err := eng.GraphCut(Query{SampleFraction: 0.2}); err != nil || !ok {
			t.Fatalf("workers %d: GraphCut ok=%v err=%v", workers, ok, err)
		}
		if eng.inGen != eng.gen {
			t.Fatalf("workers %d: the Min sweeps ran without the in-neighbour rows of their binding", workers)
		}
		if eng.chain != nil || eng.chainGen == eng.gen {
			t.Fatalf("workers %d: a Min-only binding built the sink chain", workers)
		}
		eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.2, AvgSeed: 1})
		if eng.chainGen != eng.gen || len(eng.chain) != g.N() {
			t.Fatalf("workers %d: the first exact sweep did not build the chain", workers)
		}
	}
}
