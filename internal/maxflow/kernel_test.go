package maxflow

import (
	"math/rand"
	"reflect"
	"testing"

	"kadre/internal/graph"
)

// Tests of HaoOrlinSolver's sparse scan (spans + activation lists, see the
// type comment). Every case compares the long-lived solver with Dinic
// pair by pair, for MaxFlow and for MaxFlowLimit at the limits around
// kappa, and queries it repeatedly without an intervening Reset, so a
// stale span or an activation list surviving undoQuery shows as a wrong
// value on a later pair.

// checkAgainstDinic asserts ho answers every query like a Dinic solver
// built fresh from edges, and that both keep the MaxFlowLimit contract
// around each value (see checkMaxFlowLimit).
func checkAgainstDinic(t testing.TB, stage string, ho *HaoOrlinSolver, n int, edges []Edge, queries [][2]int) {
	t.Helper()
	d := NewDinic(n, edges)
	for _, q := range queries {
		s, tgt := q[0], q[1]
		kappa := d.MaxFlow(s, tgt)
		if got := ho.MaxFlow(s, tgt); got != kappa {
			t.Fatalf("%s (%d,%d): hao-orlin=%d, dinic=%d (n=%d edges=%v)", stage, s, tgt, got, kappa, n, edges)
		}
		checkMaxFlowLimit(t, stage+" dinic", d, s, tgt, kappa)
		checkMaxFlowLimit(t, stage+" hao-orlin", ho, s, tgt, kappa)
	}
}

// TestKernelKademliaShapedChurn drives one solver through 24 delta batches
// on the Even transform of a Kademlia-shaped graph: every node keeps up to
// k contacts per XOR-distance bucket (out-degree about n/2, most of them
// reciprocated), so an out-copy's region in the reversed store is one
// forward arc followed by some 15 backward ones — the shape the spans
// were built for. Each batch tombstones one whole vertex, revives an
// earlier one with a new neighbourhood (more novel arcs than arcSlack:
// relocation) and flips a few table entries; every sixth step compacts.
func TestKernelKademliaShapedChurn(t *testing.T) {
	const n, k, steps = 32, 4, 24
	r := rand.New(rand.NewSource(20))
	g := graph.NewDigraph(n)
	alive := make([]bool, n)
	link := func(u, v int) {
		if alive[u] && alive[v] && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	wire := func(u int) {
		for bit := 0; 1<<bit < n; bit++ {
			size := 1 << bit
			base := (u ^ size) &^ (size - 1) // the ids at XOR distance [size, 2*size)
			for _, off := range r.Perm(size)[:min(k, size)] {
				link(u, base+off)
				if r.Float64() < 0.8 {
					link(base+off, u)
				}
			}
		}
	}
	for u := range alive {
		alive[u] = true
	}
	for u := 0; u < n; u++ {
		wire(u)
	}
	ho := NewHaoOrlin(2*n, unitEven(g))

	var dead []int
	relocated := false
	for step := 0; step < steps; step++ {
		prev := g.Clone()
		if len(dead) > 0 && step%2 == 1 { // revive the longest-dead vertex
			u := dead[0]
			dead = dead[1:]
			alive[u] = true
			wire(u)
			for v := 0; v < n; v++ {
				if v != u && alive[v] && r.Float64() < 0.5 {
					link(v, u)
				}
			}
		}
		victim := r.Intn(n)
		for !alive[victim] {
			victim = r.Intn(n)
		}
		alive[victim] = false
		dead = append(dead, victim)
		for _, e := range g.Edges() {
			if e.U == victim || e.V == victim || r.Float64() < 0.02 {
				g.RemoveEdge(e.U, e.V)
			}
		}
		var delta graph.Delta
		graph.DiffInto(prev, g, &delta)
		if !ho.ApplyUnitDelta(evenDelta(delta.Added), evenDelta(delta.Removed)) {
			t.Fatalf("step %d: consistent delta rejected", step)
		}
		relocated = relocated || ho.ArcStats().Relocations > 0
		if step%6 == 5 {
			ho.Compact()
		}
		var queries [][2]int
		for len(queries) < 16 {
			s := r.Intn(n)
			for i := 0; i < 4; i++ { // four sinks per source: the root stays put
				if tgt := r.Intn(n); tgt != s {
					queries = append(queries, [2]int{graph.Out(s), graph.In(tgt)})
				}
			}
		}
		checkAgainstDinic(t, "step", ho, 2*n, unitEven(g), queries)
	}
	if !relocated {
		t.Fatal("no revive overflowed its slack: relocation not exercised")
	}
}

// kernelCase is one general-graph scenario: a capacitated edge list, one
// delta batch consistent with it, and the pairs to query. Deltas only
// touch vertex pairs joined by at most one edge in either direction, the
// precondition under which an edge names its arc (see arcStore.findArc).
type kernelCase struct {
	n              int
	edges          []Edge
	added, removed []Edge
	queries        [][2]int
}

// joins reports whether e runs between u and v, in either direction.
func joins(e Edge, u, v int) bool {
	return (e.U == u && e.V == v) || (e.U == v && e.V == u)
}

// toggle adds the edge (u, v, cap) to the delta batch if nothing joins u
// and v, or removes the one live edge u->v that does; anything else, and a
// pair already toggled, is skipped.
func (c *kernelCase) toggle(u, v int, cap int32) {
	for _, batch := range [][]Edge{c.added, c.removed} {
		for _, e := range batch {
			if joins(e, u, v) {
				return
			}
		}
	}
	count, last := 0, Edge{}
	for _, e := range c.edges {
		if joins(e, u, v) {
			count, last = count+1, e
		}
	}
	switch {
	case u == v:
	case count == 0:
		c.added = append(c.added, Edge{u, v, cap})
	case count == 1 && last.U == u && last.Cap > 0:
		c.removed = append(c.removed, last)
	}
}

// edited returns the edge list after the delta batch.
func (c kernelCase) edited() []Edge {
	var out []Edge
	for _, e := range c.edges {
		gone := false
		for _, rm := range c.removed {
			gone = gone || (rm.U == e.U && rm.V == e.V)
		}
		if !gone {
			out = append(out, e)
		}
	}
	return append(out, c.added...)
}

// run checks the queries on the base graph, after the delta batch, after
// a Compact, and after the inverse batch brought the base graph back (its
// removed edges revive tombstones unless the Compact dropped them).
func (c kernelCase) run(t testing.TB) *HaoOrlinSolver {
	t.Helper()
	ho := NewHaoOrlin(c.n, c.edges)
	checkAgainstDinic(t, "base", ho, c.n, c.edges, c.queries)
	if !ho.ApplyUnitDelta(EdgeSlice(c.added), EdgeSlice(c.removed)) {
		t.Fatalf("consistent delta rejected (added=%v removed=%v edges=%v)", c.added, c.removed, c.edges)
	}
	checkAgainstDinic(t, "patched", ho, c.n, c.edited(), c.queries)
	if len(c.queries)%2 == 1 {
		ho.Compact()
		checkAgainstDinic(t, "compacted", ho, c.n, c.edited(), c.queries)
	}
	if !ho.ApplyUnitDelta(EdgeSlice(c.removed), EdgeSlice(c.added)) {
		t.Fatalf("inverse delta rejected (added=%v removed=%v edges=%v)", c.removed, c.added, c.edges)
	}
	checkAgainstDinic(t, "restored", ho, c.n, c.edges, c.queries)
	return ho
}

// Byte encoding of a kernelCase, for the fuzzer: n-2, then counted lists
// of (u, v, cap) edges, (u, v, cap-1) toggles and (s, t) queries, every
// field one byte reduced modulo its range. decodeKernelCase accepts any
// byte string; encode inverts it for a case that is in range.
const (
	kernelMaxN   = 18
	kernelMaxCap = 8
)

func decodeKernelCase(data []byte) kernelCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	c := kernelCase{n: 2 + next()%(kernelMaxN-1)}
	for i, m := 0, next()%64; i < m; i++ {
		if u, v, cap := next()%c.n, next()%c.n, next()%kernelMaxCap; u != v {
			c.edges = append(c.edges, Edge{u, v, int32(cap)})
		}
	}
	for i, m := 0, next()%16; i < m; i++ {
		u, v, cap := next()%c.n, next()%c.n, 1+next()%(kernelMaxCap-1)
		c.toggle(u, v, int32(cap))
	}
	for i, m := 0, next()%16; i < m; i++ {
		if s, t := next()%c.n, next()%c.n; s != t {
			c.queries = append(c.queries, [2]int{s, t})
		}
	}
	return c
}

func (c kernelCase) encode() []byte {
	out := []byte{byte(c.n - 2), byte(len(c.edges))}
	for _, e := range c.edges {
		out = append(out, byte(e.U), byte(e.V), byte(e.Cap))
	}
	out = append(out, byte(len(c.added)+len(c.removed)))
	for _, e := range c.added {
		out = append(out, byte(e.U), byte(e.V), byte(e.Cap-1))
	}
	for _, e := range c.removed {
		out = append(out, byte(e.U), byte(e.V), 0)
	}
	out = append(out, byte(len(c.queries)))
	for _, q := range c.queries {
		out = append(out, byte(q[0]), byte(q[1]))
	}
	return out
}

// interleavedCase builds a capacitated graph whose forward arcs are not
// contiguous in a vertex's region: the edge list is in random order (so a
// vertex's outgoing and incoming edges alternate), a fifth of the edges
// get a parallel twin and a fifth an antiparallel one, capacities run to
// 4, and a few zero-capacity edges sit in between.
func interleavedCase(r *rand.Rand) kernelCase {
	c := kernelCase{n: 6 + r.Intn(kernelMaxN-5)}
	for len(c.edges) < 3*c.n {
		u, v := r.Intn(c.n), r.Intn(c.n)
		if u == v {
			continue
		}
		c.edges = append(c.edges, Edge{u, v, int32(r.Intn(5))})
		switch r.Intn(5) {
		case 0:
			c.edges = append(c.edges, Edge{u, v, int32(1 + r.Intn(4))})
		case 1:
			c.edges = append(c.edges, Edge{v, u, int32(1 + r.Intn(4))})
		}
	}
	r.Shuffle(len(c.edges), func(i, j int) { c.edges[i], c.edges[j] = c.edges[j], c.edges[i] })
	for i := 0; i < 12; i++ {
		if e := c.edges[r.Intn(len(c.edges))]; i%2 == 0 {
			c.toggle(e.U, e.V, 0) // a removal, if the pair has no twin
		} else {
			c.toggle(r.Intn(c.n), r.Intn(c.n), int32(1+r.Intn(4)))
		}
	}
	for len(c.queries) < 9 {
		s := r.Intn(c.n)
		for i := 0; i < 3; i++ {
			if t := r.Intn(c.n); t != s {
				c.queries = append(c.queries, [2]int{s, t})
			}
		}
	}
	return c
}

// TestKernelSpansOnGeneralGraphs exercises the span rule outside the Even
// shape (see interleavedCase), and checks the cases are what they claim:
// some span holds a zero-capacity arc between two forward ones, and some
// pure backward arc lies outside its vertex's span.
func TestKernelSpansOnGeneralGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	var holes, outside, deltas int
	for trial := 0; trial < 60; trial++ {
		c := interleavedCase(r)
		ho := c.run(t)
		deltas += len(c.added) + len(c.removed)
		for v, sc := range ho.scan {
			for a := ho.st.first[v]; a < ho.st.last[v]; a++ {
				switch inSpan := a >= sc.lo && a < sc.hi; {
				case ho.st.cap0[a] > 0 && !inSpan:
					t.Fatalf("trial %d: arc %d of vertex %d has capacity outside its span [%d,%d)", trial, a, v, sc.lo, sc.hi)
				case ho.st.cap0[a] == 0 && inSpan:
					holes++
				case ho.st.cap0[a] == 0:
					outside++
				}
			}
		}
	}
	if holes == 0 || outside == 0 || deltas == 0 {
		t.Fatalf("cases too tame: %d zero arcs inside spans, %d outside, %d delta edges", holes, outside, deltas)
	}
}

// reactivationCase is a hand-built graph on which one query activates a
// backward arc, drains it back to zero and activates it again. In the
// reversed store (the query is MaxFlow(0, 1): inject at 1, root 0) two
// units enter at T=1 and reach C=4 over A=2, B=3 and over E=5, but only
// one fits through C->root: the other bounces between C, B and E — each
// bounce pushing a backward arc such as C->E full and empty again — while
// all three climb, until it parks. The chain 6..15 keeps a vertex at every
// height so the gap heuristic does not cut the climb short, and gives the
// root enough capacity in that bounded injection admits both units.
func reactivationCase() kernelCase {
	c := kernelCase{n: 16, queries: [][2]int{{0, 1}, {0, 2}, {0, 1}}}
	// store adds the reversed-store arc u->v, i.e. the edge v->u.
	store := func(u, v int, cap int32) { c.edges = append(c.edges, Edge{v, u, cap}) }
	store(4, 0, 1) // C -> root, the bottleneck
	store(3, 4, 1) // B -> C
	store(5, 4, 1) // E -> C
	store(2, 3, 1) // A -> B
	store(1, 2, 1) // T -> A
	store(1, 5, 1) // T -> E
	store(6, 0, 5)
	for v := 7; v < c.n; v++ {
		store(v, v-1, 1)
	}
	return c
}

// TestKernelReactivatesDrainedArc runs reactivationCase and reads the
// activation log left by its first query: an arc is logged once per
// zero-to-positive transition, so one logged twice was drained in between.
func TestKernelReactivatesDrainedArc(t *testing.T) {
	c := reactivationCase()
	ho := NewHaoOrlin(c.n, c.edges)
	if got := ho.MaxFlow(0, 1); got != 1 {
		t.Fatalf("MaxFlow(0,1) = %d, want 1", got)
	}
	logged := map[int32]int{}
	twice := false
	for _, e := range ho.act {
		logged[e.arc]++
		twice = twice || logged[e.arc] > 1
	}
	if !twice {
		t.Fatalf("no arc was activated twice in one query (log %v)", ho.act)
	}
	c.run(t)
}

// FuzzHaoOrlinVsDinic decodes a byte string into a kernelCase — a random
// capacitated graph, a delta batch and a query list — and holds the
// sparse-scan solver to Dinic on it. Seeded with interleaved graphs and
// the reactivation graph.
func FuzzHaoOrlinVsDinic(f *testing.F) {
	r := rand.New(rand.NewSource(34))
	seeds := []kernelCase{reactivationCase()}
	for i := 0; i < 4; i++ {
		seeds = append(seeds, interleavedCase(r))
	}
	for _, c := range seeds {
		if back := decodeKernelCase(c.encode()); !reflect.DeepEqual(back, c) {
			f.Fatalf("seed does not survive its encoding:\n%+v\n%+v", c, back)
		}
		f.Add(c.encode())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeKernelCase(data).run(t)
	})
}
