package connectivity

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// kadShapedGraph builds a digraph with the structure of a Kademlia
// connectivity graph: n vertices with random idBits-bit identifiers
// (1..64), each keeping up to k contacts per XOR-distance bucket and
// never evicting one. Vertices join in index order and meet every
// earlier vertex, each side offering itself to the other — a node learns
// a contact from any message it receives. The far buckets fill up early,
// so out-degrees cluster around k*log2(n/k) while a late joiner is known
// only to the few vertices with room left for it: the near-symmetric
// shape with a thin tail of low in-degrees on which the minimum sits
// well below the sources' out-degrees and their fan closure covers almost
// every sink. A 32-bit identifier is r.Uint32()'s draw.
func kadShapedGraph(seed int64, n, k, idBits int) *graph.Digraph {
	r := rand.New(rand.NewSource(seed))
	ids := make([]uint64, 0, n)
	for len(ids) < n {
		var id uint64
		if idBits == 64 {
			id = r.Uint64()
		} else {
			id = uint64(r.Int63()) >> (63 - idBits)
		}
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	g := graph.NewDigraph(n)
	fill := make([][64]int, n) // contacts per bucket
	observe := func(u, v int) {
		if b := bits.Len64(ids[u]^ids[v]) - 1; fill[u][b] < k {
			fill[u][b]++
			g.AddEdge(u, v)
		}
	}
	for u := 1; u < n; u++ {
		for _, v := range r.Perm(u) {
			observe(u, v)
			observe(v, u)
		}
	}
	return g
}

// flatSuccessors is the test-side flat adjacency: ascending successors,
// or shuffled per vertex when r is non-nil.
func flatSuccessors(g *graph.Digraph, r *rand.Rand) (start, succ []int32) {
	start = append(start, 0)
	for u := 0; u < g.N(); u++ {
		row := g.Successors(u)
		if r != nil {
			r.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		}
		for _, v := range row {
			succ = append(succ, int32(v))
		}
		start = append(start, int32(len(succ)))
	}
	return start, succ
}

// kappaFrom is the per-pair Dinic reference: kappa(s, t) for every t that
// is neither s nor adjacent to it, -1 elsewhere.
func kappaFrom(g *graph.Digraph, s int) []int {
	solver := maxflow.NewDinic(2*g.N(), referenceEvenUnitEdges(g))
	kappa := make([]int, g.N())
	for t := range kappa {
		kappa[t] = -1
		if t != s && !g.HasEdge(s, t) {
			kappa[t] = solver.MaxFlow(graph.Out(s), graph.In(t))
		}
	}
	return kappa
}

// requireSoundClosure fails unless every member of c has kappa >= thr.
func requireSoundClosure(t *testing.T, label string, c *fanClosure, kappa []int, thr int) {
	t.Helper()
	for v, k := range kappa {
		if k >= 0 && c.has(v) && k < thr {
			t.Fatalf("%s: vertex %d is a member at threshold %d but kappa = %d", label, v, thr, k)
		}
	}
}

// checkFanClosure holds the closure of source s on g to the lemma and to
// its own algebra, for every threshold from outdeg+1 down to 0: members
// are thr-connected from s (Dinic), the fixed point does not depend on
// the successor order, lowering the threshold step by step lands where a
// fresh computation does, and a vertex admitted on the strength of a flow
// keeps the closure sound. vacant lists the isolated slots of a masked
// graph: they join only at threshold 0.
func checkFanClosure(t *testing.T, label string, g *graph.Digraph, s int, vacant []int, r *rand.Rand) {
	t.Helper()
	kappa := kappaFrom(g, s)
	start, succ := flatSuccessors(g, nil)
	shStart, shSucc := flatSuccessors(g, r)
	var fresh, shuffled, lowered, grown fanClosure
	top := g.OutDegree(s) + 1
	lowered.reset(start, succ, s, top)
	for thr := top; thr >= 0; thr-- {
		at := fmt.Sprintf("%s source %d threshold %d", label, s, thr)
		fresh.reset(start, succ, s, thr)
		requireSoundClosure(t, at, &fresh, kappa, thr)
		if !fresh.has(s) {
			t.Fatalf("%s: the source is not a member", at)
		}
		for _, v := range g.Successors(s) {
			if !fresh.has(v) {
				t.Fatalf("%s: out-neighbour %d is not a member", at, v)
			}
		}
		for _, v := range vacant {
			if fresh.has(v) != (thr == 0) {
				t.Fatalf("%s: vacant slot %d membership = %v", at, v, fresh.has(v))
			}
		}
		shuffled.reset(shStart, shSucc, s, thr)
		if !slices.Equal(fresh.good, shuffled.good) {
			t.Fatalf("%s: the closure depends on the successor order", at)
		}
		lowered.lower(thr)
		if !slices.Equal(fresh.good, lowered.good) {
			t.Fatalf("%s: lowering from %d differs from a fresh closure", at, thr+1)
		}
		// A non-member the solver proves thr-connected joins and propagates.
		grown.reset(start, succ, s, thr)
		for v, k := range kappa {
			if k >= thr && !grown.has(v) {
				grown.add(v)
				requireSoundClosure(t, at+" after add", &grown, kappa, thr)
			}
		}
	}
}

// TestFanClosureLemma is the lemma against Dinic on the three graph
// families the engine binds: random digraphs, Kademlia-shaped bucketed
// graphs, and masked slot graphs with vacant slots.
func TestFanClosureLemma(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	sources := func(n int) []int { return r.Perm(n)[:min(n, 4)] }
	for seed := int64(1); seed <= 4; seed++ {
		for _, g := range []*graph.Digraph{
			randomDigraph(seed, 14, 60),
			randomDigraph(seed, 24, 200),
			randomSymmetricGraph(seed, 20, 70),
			kadShapedGraph(seed, 40, 3, 32),
		} {
			for _, s := range sources(g.N()) {
				checkFanClosure(t, fmt.Sprintf("seed %d n %d", seed, g.N()), g, s, nil, r)
			}
		}
		w := newSlotWorld(seed, 16, 4)
		w.capture() // assigns the 16 slots the leaves then vacate
		for i := 0; i < 5; i++ {
			w.leave()
		}
		w.join(4)
		slotG, order, _ := w.capture()
		var vacant []int
		for v := 0; v < slotG.N(); v++ {
			if !slices.Contains(order, v) {
				vacant = append(vacant, v)
			}
		}
		if len(vacant) == 0 {
			t.Fatalf("seed %d: the slot world has no vacant slot", seed)
		}
		for _, i := range sources(len(order)) {
			checkFanClosure(t, fmt.Sprintf("slot world %d", seed), slotG, order[i], vacant, r)
		}
	}
}

// requireEngineMatchesReference compares every pruned entry point of eng
// (already bound) with the per-pair Dinic reference run on dense, the
// compacted form of the bound graph.
func requireEngineMatchesReference(t *testing.T, label string, eng *Engine, dense *graph.Digraph) {
	t.Helper()
	ref := MustNewEngine(EngineOptions{Workers: 1})
	ref.Bind(dense)
	for _, c := range []float64{0.1, 1} {
		q := Query{SampleFraction: c, MinOnly: true}
		want := referenceAnalyze(referenceOptions{Query: q}, dense)
		if got := eng.Analyze(q); !sameResult(got, want) {
			t.Fatalf("%s c=%g: Analyze %+v, reference %+v", label, c, got, want)
		}
		cut, pair, ok, err := eng.GraphCut(Query{SampleFraction: c})
		if err != nil {
			t.Fatalf("%s c=%g: GraphCut: %v", label, c, err)
		}
		var wantCut []int
		wantOK := !want.Complete && want.MinPair[0] >= 0
		wantPair := [2]int{}
		if wantOK {
			wantPair = want.MinPair
			if wantCut, err = ref.PairCut(wantPair[0], wantPair[1]); err != nil {
				t.Fatalf("%s c=%g: reference PairCut: %v", label, c, err)
			}
			if len(wantCut) != want.Min {
				t.Fatalf("%s c=%g: reference cut %v has not size Min = %d", label, c, wantCut, want.Min)
			}
		}
		requireSameCut(t, fmt.Sprintf("%s c=%g", label, c), cut, pair, ok, wantCut, wantPair, wantOK)
	}
	sr := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.1, AvgSeed: 17})
	wantMin := referenceAnalyze(referenceOptions{Query: Query{SampleFraction: 0.1, MinOnly: true}, SkipMinPair: true}, dense)
	wantAvg := referenceAnalyze(referenceOptions{Query: Query{SampleFraction: 0.1}, Uniform: true, Seed: 17}, dense)
	if !sameResult(sr.Min, wantMin) || !sameResult(sr.Avg, wantAvg) {
		t.Fatalf("%s: AnalyzeSnapshot %+v, reference min %+v avg %+v", label, sr, wantMin, wantAvg)
	}
}

// TestFanClosureWiring holds the engine with the closure in its sink loop
// to the per-pair reference, which has none: same Min, Pairs, MinPair and
// extracted cut at every worker count (the running minimum crosses
// workers, so CI repeats this under -race), on dense and masked bindings.
func TestFanClosureWiring(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		eng := MustNewEngine(EngineOptions{Workers: workers})
		for seed := int64(1); seed <= 3; seed++ {
			for _, g := range []*graph.Digraph{
				kadShapedGraph(seed, 48, 3, 32),
				kadShapedGraph(seed, 64, 5, 32),
				randomDigraph(seed, 30, 260),
			} {
				eng.Bind(g)
				requireEngineMatchesReference(t, fmt.Sprintf("workers %d seed %d n %d", workers, seed, g.N()), eng, g)
			}
			w := newSlotWorld(seed, 30, 6)
			w.capture() // assigns the slots the leaves then vacate
			for i := 0; i < 6; i++ {
				w.leave()
			}
			w.join(6)
			slotG, order, dense := w.capture()
			eng.BindSlots(slotG, order)
			requireEngineMatchesReference(t, fmt.Sprintf("workers %d slot world %d", workers, seed), eng, dense)
		}
		if eng.SweepSettled() == 0 {
			t.Fatalf("workers %d: the closure never settled a pair", workers)
		}
	}
}

// TestFanClosureStaleness pins the lifetimes: the flat adjacency belongs
// to one binding generation and the closure scratch to one task. A member
// of the first binding's closure loses its in-edges in the second, which
// makes it the weakest sink; an engine that kept either structure across
// the RebindSlots would still vouch for it and miss the new minimum.
func TestFanClosureStaleness(t *testing.T) {
	g1 := kadShapedGraph(5, 60, 4, 32)
	order := make([]int, g1.N())
	for i := range order {
		order[i] = i
	}
	inc := MustNewEngine(EngineOptions{Workers: 1})
	binder := NewIncrementalBinder(inc)
	binder.BindNextSlots(g1, order)
	q := Query{SampleFraction: 0.1, MinOnly: true}
	first := inc.Analyze(q)
	if inc.SweepSettled() == 0 {
		t.Fatal("the first binding settled nothing: the test graph does not exercise the closure")
	}

	// The victim: a sink the weakest source's closure vouches for at the
	// first binding's minimum.
	src := inc.smallestOutDegreeSources(1)[0]
	start, succ := flatSuccessors(g1, nil)
	var c fanClosure
	c.reset(start, succ, src, first.Min)
	victim := -1
	for v := 0; v < g1.N(); v++ {
		if v != src && !g1.HasEdge(src, v) && c.has(v) {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Fatal("no closure member to weaken")
	}
	g2 := g1.Clone()
	kept := false
	for u := 0; u < g2.N(); u++ {
		if g2.HasEdge(u, victim) {
			if !kept {
				kept = true // one in-edge stays: kappa(src, victim) <= 1
				continue
			}
			g2.RemoveEdge(u, victim)
		}
	}
	if !binder.BindNextSlots(g2, order) {
		t.Fatal("the second binding did not take the incremental path")
	}
	fresh := MustNewEngine(EngineOptions{Workers: 1})
	fresh.BindSlots(g2, order)
	want := fresh.Analyze(q)
	if want.Min >= first.Min {
		t.Fatalf("weakening vertex %d left Min at %d (was %d)", victim, want.Min, first.Min)
	}
	requireSameResult(t, "rebound vs fresh", inc.Analyze(q), want)
	requireSameResult(t, "rebound vs reference", want, referenceAnalyze(referenceOptions{Query: q}, g2))
}

// TestFanClosureEdgeCases covers the degenerate thresholds and shapes.
func TestFanClosureEdgeCases(t *testing.T) {
	check := func(label string, g *graph.Digraph, q Query) Result {
		t.Helper()
		eng := MustNewEngine(EngineOptions{Workers: 1})
		eng.Bind(g)
		got := eng.Analyze(q)
		if want := referenceAnalyze(referenceOptions{Query: q}, g); !sameResult(got, want) {
			t.Fatalf("%s: engine %+v, reference %+v", label, got, want)
		}
		return got
	}
	minOnly := Query{SampleFraction: 1, MinOnly: true}

	// Limit 0: a source of out-degree 0 seeds the running minimum at 0,
	// where every sink is vacuously a member and no flow runs.
	sink := randomDigraph(3, 10, 40)
	for v := 0; v < sink.N(); v++ {
		sink.RemoveEdge(0, v)
	}
	eng := MustNewEngine(EngineOptions{Workers: 1})
	eng.Bind(sink)
	res := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.1, MinOnly: true}).Min
	if res.Min != 0 || res.Pairs != 9 || eng.SweepFlows() != 0 || eng.SweepSettled() != 9 {
		t.Fatalf("limit 0: %+v with %d flows, %d settled", res, eng.SweepFlows(), eng.SweepSettled())
	}
	if res := check("limit 0", sink, Query{SampleFraction: 0.1, MinOnly: true}); res.MinPair != [2]int{0, 1} {
		t.Fatalf("limit 0: MinPair %v", res.MinPair)
	}
	check("limit 0 full", sink, minOnly)

	// A sampled source adjacent to everyone evaluates no pair. Only the
	// uniform Avg sources can be such a vertex: were it a smallest
	// out-degree source, the graph would be complete.
	hub := randomDigraph(4, 12, 30)
	for v := 1; v < hub.N(); v++ {
		hub.AddEdge(0, v)
	}
	avg := referenceOptions{Query: Query{SampleFraction: 0.05}, Uniform: true}
	for referencePickSources(avg, hub)[0] != 0 {
		avg.Seed++
	}
	eng.Bind(hub)
	got := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.05, AvgSeed: avg.Seed}).Avg
	if want := referenceAnalyze(avg, hub); !sameResult(got, want) || got.Pairs != 0 {
		t.Fatalf("hub: Avg %+v, reference %+v, want no pair", got, want)
	}

	// n = 2 with one edge: source 0 has no sink, source 1 no way out.
	two := graph.NewDigraph(2)
	two.AddEdge(0, 1)
	if res := check("n=2", two, minOnly); res.Min != 0 || res.MinPair != [2]int{1, 0} {
		t.Fatalf("n=2: %+v", res)
	}

	// A complete active graph behind vacant slots never reaches the sweep.
	slotG := graph.NewDigraph(6)
	order := []int{4, 1, 3}
	for _, u := range order {
		for _, v := range order {
			if u != v {
				slotG.AddEdge(u, v)
			}
		}
	}
	eng.BindSlots(slotG, order)
	if res := eng.Analyze(minOnly); !res.Complete || res.Min != 2 {
		t.Fatalf("complete active graph: %+v", res)
	}
}

// TestSweepCountersPinClosureShare is the stopwatch-free regression guard:
// on a Kademlia-shaped 150-vertex graph the closure answers at least nine
// in ten capped pairs of the fused snapshot analysis. The counters are
// exact at Workers: 1, so a change that silently disables the closure —
// or halves what it covers — fails here.
func TestSweepCountersPinClosureShare(t *testing.T) {
	g := kadShapedGraph(7, 150, 10, 32)
	eng := MustNewEngine(EngineOptions{Workers: 1})
	eng.Bind(g)
	sr := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.1, AvgSeed: 1})
	settled := eng.SweepSettled()
	cappedFlows := eng.SweepFlows() - sr.Avg.Pairs // every exact pair is a flow
	if settled+cappedFlows != sr.Min.Pairs {
		t.Fatalf("settled %d + capped flows %d != capped pairs %d", settled, cappedFlows, sr.Min.Pairs)
	}
	if share := float64(settled) / float64(sr.Min.Pairs); share < 0.9 {
		t.Fatalf("the closure settled %d of %d capped pairs (%.3f), want >= 0.9", settled, sr.Min.Pairs, share)
	}
	// A repeat on the same binding answers from the memo: no flow, no
	// settled pair.
	if again := eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.1, AvgSeed: 1}); !sameSnapshot(again, sr) {
		t.Fatalf("repeat answered %+v, first %+v", again, sr)
	}
	if eng.SweepSettled() != settled || eng.SweepFlows() != cappedFlows+sr.Avg.Pairs {
		t.Fatalf("a repeat on one binding swept: settled %d flows %d", eng.SweepSettled(), eng.SweepFlows())
	}
	// Cumulative across bindings: after a rebind the same analysis doubles both.
	eng.Bind(g)
	eng.AnalyzeSnapshot(SnapshotQuery{SampleFraction: 0.1, AvgSeed: 1})
	if eng.SweepSettled() != 2*settled || eng.SweepFlows() != 2*(cappedFlows+sr.Avg.Pairs) {
		t.Fatalf("counters are not cumulative: settled %d flows %d", eng.SweepSettled(), eng.SweepFlows())
	}
}

// fanCase is FuzzFanClosure's input: a slot graph with a vacancy mask, a
// source (an index into the active slots) and a threshold.
type fanCase struct {
	n      int
	vacant uint16
	src    int
	thr    int
	edges  [][2]int
}

func (c fanCase) encode() []byte {
	out := []byte{byte(c.n - 2), byte(c.vacant), byte(c.vacant >> 8), byte(c.src), byte(c.thr)}
	for _, e := range c.edges {
		out = append(out, byte(e[0]), byte(e[1]))
	}
	return out
}

// decodeFanCase reads any byte string as a fanCase: 2..16 slots, at least
// two of them active, edges only between distinct active slots.
func decodeFanCase(data []byte) fanCase {
	var hdr [5]byte
	copy(hdr[:], data)
	c := fanCase{n: 2 + int(hdr[0])%15, vacant: uint16(hdr[1]) | uint16(hdr[2])<<8}
	c.vacant &= 1<<c.n - 1
	for v := 0; bits.OnesCount16(c.vacant) > c.n-2; v++ {
		c.vacant &^= 1 << v
	}
	c.src = int(hdr[3]) % (c.n - bits.OnesCount16(c.vacant))
	c.thr = int(hdr[4]) % (c.n + 1)
	for i := 5; i+1 < len(data); i += 2 {
		u, v := int(data[i])%c.n, int(data[i+1])%c.n
		if u != v && c.vacant&(1<<u|1<<v) == 0 && !slices.Contains(c.edges, [2]int{u, v}) {
			c.edges = append(c.edges, [2]int{u, v})
		}
	}
	return c
}

// run checks the closure of the case's source at its threshold against
// Dinic on the slot graph, and the engine's pruned analysis of the masked
// binding against the reference on the compacted graph.
func (c fanCase) run(t *testing.T) {
	slotG := graph.NewDigraph(c.n)
	for _, e := range c.edges {
		slotG.AddEdge(e[0], e[1])
	}
	var order, vacant []int
	rank := make([]int, c.n)
	for v := 0; v < c.n; v++ {
		if c.vacant&(1<<v) != 0 {
			vacant = append(vacant, v)
			continue
		}
		rank[v] = len(order)
		order = append(order, v)
	}
	dense := graph.NewDigraph(len(order))
	for _, e := range c.edges {
		dense.AddEdge(rank[e[0]], rank[e[1]])
	}

	s := order[c.src]
	start, succ := flatSuccessors(slotG, nil)
	var fc fanClosure
	fc.reset(start, succ, s, c.thr)
	requireSoundClosure(t, fmt.Sprintf("%+v", c), &fc, kappaFrom(slotG, s), c.thr)
	for _, v := range vacant {
		if fc.has(v) != (c.thr == 0) {
			t.Fatalf("%+v: vacant slot %d membership = %v", c, v, fc.has(v))
		}
	}

	eng := MustNewEngine(EngineOptions{Workers: 1})
	eng.BindSlots(slotG, order)
	q := Query{SampleFraction: 1, MinOnly: true}
	if got, want := eng.Analyze(q), referenceAnalyze(referenceOptions{Query: q}, dense); !sameResult(got, want) {
		t.Fatalf("%+v: engine %+v, reference %+v", c, got, want)
	}
}

// fanSeedCases are FuzzFanClosure's hand-built seeds, also run as a plain
// test so that `go test` covers them without -fuzz.
func fanSeedCases() []fanCase {
	return []fanCase{
		// Vertex 5 is a member (threshold 2) only through member 4: its
		// in-neighbours are 4 and 1, and 4's are 1 and 2.
		{n: 7, vacant: 1 << 6, src: 0, thr: 2, edges: [][2]int{
			{0, 1}, {0, 2}, {1, 4}, {2, 4}, {4, 5}, {1, 5}, {5, 3}, {3, 0},
		}},
		// A path: at threshold 2 nothing past N+[s] has two member
		// in-neighbours, so the closure is exactly {0, 1}.
		{n: 5, src: 0, thr: 2, edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		// Threshold 0 and a source without out-edges.
		{n: 4, vacant: 1 << 1, src: 2, thr: 0, edges: [][2]int{{0, 2}, {2, 0}}},
	}
}

func TestFanClosureSeedCases(t *testing.T) {
	cases := fanSeedCases()
	for _, c := range cases {
		c.run(t)
	}
	member := func(c fanCase) []bool {
		g := graph.NewDigraph(c.n)
		for _, e := range c.edges {
			g.AddEdge(e[0], e[1])
		}
		start, succ := flatSuccessors(g, nil)
		var fc fanClosure
		fc.reset(start, succ, c.src, c.thr)
		return fc.good
	}
	if got := member(cases[0]); !got[4] || !got[5] || got[3] {
		t.Fatalf("chained seed: membership %v, want 4 and 5 in, 3 out", got)
	}
	if got, want := member(cases[1]), []bool{true, true, false, false, false}; !slices.Equal(got, want) {
		t.Fatalf("path seed: membership %v, want %v", got, want)
	}
}

// FuzzFanClosure decodes a byte string into a slot graph, a vacancy mask,
// a source and a threshold, and holds the closure to Dinic and the engine
// to the per-pair reference on it.
func FuzzFanClosure(f *testing.F) {
	for _, c := range fanSeedCases() {
		if back := decodeFanCase(c.encode()); fmt.Sprint(back) != fmt.Sprint(c) {
			f.Fatalf("seed does not survive its encoding:\n%+v\n%+v", c, back)
		}
		f.Add(c.encode())
	}
	r := rand.New(rand.NewSource(55))
	for i := 0; i < 4; i++ {
		data := make([]byte, 5+2*(10+r.Intn(60)))
		r.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFanCase(data).run(t)
	})
}
