package maxflow

import "fmt"

// HaoOrlinSolver is the sweep-specialized max-flow solver behind the
// one-source/all-sinks connectivity analyses. It adapts the structural
// idea of Hao & Orlin's minimum-cut algorithm — keep one fixed root for
// the distance labels and never recompute them from scratch as the other
// endpoint of the query changes — to the pipeline's exact per-pair
// semantics, where the paper-faithful sweep fixes the *source* and
// iterates over every sink.
//
// The trick is orientation: the solver stores the graph REVERSED, so the
// sweep's shared source s becomes the sink of every reversed query
// (max-flow s->t in G equals max-flow t->s in reverse(G)). Push-relabel
// computes its distance labels by a backward search from the sink — which
// now never moves. PrepareSource(s) therefore runs that search ONCE per
// source on the fresh residual; each per-sink query starts from the
// cached labels with a handful of O(n) array restores and pays only for
// the flow it actually routes; no per-sink global relabel is left.
//
// Exactness per pair is preserved by isolation rather than sharing: each
// query runs on a logically fresh residual, restored via undo logs (the
// arcs its pushes touched, the vertices its excess reached) instead of
// array rewrites. Excess that cannot reach the root parks on the dormant
// set — vertices lifted to height >= n by the gap heuristic, exactly
// Hao-Orlin's dormant bookkeeping — and is dropped by the same undo logs.
// The flow value is read off excess(root) at phase-1 termination, which
// the standard maximum-preflow argument pins to the exact s-t max-flow;
// the property tests assert equality against fresh Dinic solves pair by
// pair.
//
// MaxFlowLimit returns exactly min(limit, true flow): the query injects
// no more than U = min(limit, capacity out of t, capacity into s) units
// (see the bounded injection in MaxFlowLimit), so the root's excess never
// passes U, and a maximum preflow delivers min(U, kappa) of them. The
// value therefore does not depend on the order in which arcs are tried,
// which is what lets the scan below skip and reorder arcs freely without
// moving a single result.
//
// The scan is sparse. In the reversed store an Even out-copy owns one
// forward arc and 40-75 zero-capacity backward arcs, and a relabel or a
// discharge that walks them all spends nine visits in ten on arcs that
// cannot carry flow. So each vertex keeps a span [lo, hi) — the tightest
// range of its arc region that covers every arc with cap0 > 0, rebuilt
// lazily after a rebind — and an activation list: the backward arcs
// outside the span that a push of the current query took from zero to
// positive residual, kept in a per-query log (vertexScan, actEntry).
// discharge and relabel scan the span and then the list, nothing else;
// arcs inside the span, tombstones and interleaved backward arcs
// included, are tested as ever, so general graphs stay correct. Two
// invariants carry it:
//
//   - a non-empty list implies membership in dirtyV: an arc u->v is
//     activated by a push v->u, which hands u excess, and only vertices
//     holding excess are discharged or relabelled — so undoQuery restores
//     every list and cursor while it clears the excess it logged;
//   - a freshly activated arc u->v is inadmissible until u is relabelled:
//     the push that created it ran downhill (height[v] = height[u]+1),
//     labels only rise, and u's own label moves only in relabel, which
//     rescans the whole list — so the entry may go in front of u's list
//     cursor, and the cursor a relabel leaves is a valid current arc.
//
// relabel already visits every residual arc to find the lowest neighbour,
// so it leaves the cursors at the first arc attaining that minimum rather
// than at the start. On the repository benchmark's 150-node churn
// workload a pair routes about 20 units of flow in 281 pushes and 66
// relabels; the sparse scan visits 3 573 arcs for it where the dense one
// visited 9 571.
type HaoOrlinSolver struct {
	st arcStore // REVERSED-orientation residual arcs

	height      []int32
	heightCount []int32
	excess      []int64
	bucketHead  []int32 // active-vertex buckets by height
	nextActive  []int32
	highest     int32
	queue       []int32 // BFS scratch

	// srcHeight/srcHeightCount cache the fresh-residual distance labels
	// to root (the prepared forward-source), restored per query by memcpy.
	srcHeight      []int32
	srcHeightCount []int32

	// dirtyV logs vertices whose excess became nonzero in the current
	// query, so the next query clears excess in O(touched) instead of
	// O(n). Arc restores ride the arcStore's dirty log.
	dirtyV []int32

	// scan holds, per vertex, the part of its arc region that discharge
	// and relabel visit and the cursors into it (see vertexScan).
	// spanStale marks the spans invalid after the arc layout or cap0
	// changed (Reset, ApplyUnitDelta, Compact); rootRelabel rebuilds them,
	// once per rebind.
	scan      []vertexScan
	spanStale bool

	// act is the activation log of the current query: each entry names an
	// arc outside its tail's span that a push took from zero to positive
	// residual, and links the older entries of the same tail. Its length
	// is proportional to the query's pushes; undoQuery truncates it.
	act []actEntry

	root      int32 // prepared forward-source (= reversed sink); -1 invalid
	rootCapIn int64 // fresh residual capacity into the root (flow upper bound)
	relabels  int   // since last mid-query global relabel

	// revSrc adapts the caller's EdgeSource for init without boxing a
	// fresh interface value per Reset (the engine's steady state must not
	// allocate). The wrapped source is dropped after init.
	revSrc reversedSource
}

var _ Solver = (*HaoOrlinSolver)(nil)

// vertexScan is one vertex's share of the sparse scan (see HaoOrlinSolver):
// its span [lo, hi), the current-arc cursor cur within the span, the
// newest entry actHead of its activation list in the log, and the cursor
// actCur that continues cur through the list. Between queries cur == lo
// and actHead == actCur == -1 (empty list).
type vertexScan struct {
	lo, hi          int32
	cur             int32
	actHead, actCur int32
}

// actEntry is one activation: the arc, and the index in the log of the
// previous activation at the same tail vertex (-1: none).
type actEntry struct{ arc, next int32 }

// reversedSource presents an EdgeSource with every edge reversed.
type reversedSource struct{ src EdgeSource }

func (r *reversedSource) NumEdges() int { return r.src.NumEdges() }
func (r *reversedSource) EdgeAt(i int) (int, int, int32) {
	u, v, c := r.src.EdgeAt(i)
	return v, u, c
}

// NewHaoOrlin builds a sweep solver for the given graph.
func NewHaoOrlin(n int, edges []Edge) *HaoOrlinSolver {
	return NewHaoOrlinSource(n, EdgeSlice(edges))
}

// NewHaoOrlinSource builds a sweep solver from an EdgeSource.
func NewHaoOrlinSource(n int, edges EdgeSource) *HaoOrlinSolver {
	h := &HaoOrlinSolver{}
	h.Reset(n, edges)
	return h
}

// Reset implements Solver: it re-binds the solver to a new graph in
// place, reusing internal arrays whose capacity suffices. The edge list
// is stored reversed (see the type comment); callers never see the
// orientation.
func (h *HaoOrlinSolver) Reset(n int, edges EdgeSource) {
	h.revSrc.src = edges
	h.st.init(n, &h.revSrc)
	h.revSrc.src = nil // do not retain the caller's source past init
	h.height = growInt32(h.height, n)
	h.srcHeight = growInt32(h.srcHeight, n)
	if cap(h.scan) >= n {
		h.scan = h.scan[:n]
	} else {
		h.scan = make([]vertexScan, n)
	}
	h.act = h.act[:0]
	h.bucketHead = growInt32(h.bucketHead, 2*n+2)
	h.nextActive = growInt32(h.nextActive, n)
	h.heightCount = growInt32(h.heightCount, 2*n+2)
	h.srcHeightCount = growInt32(h.srcHeightCount, 2*n+2)
	if cap(h.excess) >= n {
		h.excess = h.excess[:n]
	} else {
		h.excess = make([]int64, n)
	}
	for i := range h.excess {
		h.excess[i] = 0
	}
	if cap(h.queue) < n {
		h.queue = make([]int32, 0, n)
	}
	h.dirtyV = h.dirtyV[:0]
	h.root, h.spanStale = -1, true
}

// N implements Solver.
func (h *HaoOrlinSolver) N() int { return h.st.n }

// ApplyUnitDelta implements Solver: it patches the (reversed)
// bound graph in place and drops the cached root labels, which depend on
// the whole graph. The arc layout — the expensive part of a rebind —
// survives untouched, and because tombstoned slots keep their positions,
// a patched solver traverses arcs in exactly the order a freshly built
// one would: results stay bit-identical between the two paths.
func (h *HaoOrlinSolver) ApplyUnitDelta(added, removed EdgeSource) bool {
	h.undoQuery()
	if !h.st.applyDelta(added, removed, true) {
		return false
	}
	h.root, h.spanStale = -1, true
	return true
}

// ArcStats implements Solver.
func (h *HaoOrlinSolver) ArcStats() ArcStats { return h.st.stats() }

// Compact implements Solver: it restores the fresh residual
// (replaying the last query's logs while their arc indices are still
// valid), re-densifies the reversed arc store, and drops the cached root
// labels, exactly as a delta would.
func (h *HaoOrlinSolver) Compact() {
	h.undoQuery()
	h.st.redensify()
	h.root, h.spanStale = -1, true
}

// PrepareSource implements Solver: it roots the distance labels at s (the
// reversed graph's sink) with one backward BFS on the fresh residual.
// Every subsequent query from s reuses the labels; a query from a
// different source re-roots implicitly.
func (h *HaoOrlinSolver) PrepareSource(s int) {
	if s < 0 || s >= h.st.n {
		panic(fmt.Sprintf("maxflow: vertex %d out of range [0,%d)", s, h.st.n))
	}
	if int32(s) == h.root {
		return
	}
	h.undoQuery()
	h.root = int32(s)
	h.rootRelabel()
}

// undoQuery restores the fresh residual, zero excess, empty activation
// lists and rewound cursors by replaying the previous query's logs. Only
// a vertex that held excess is ever discharged, relabelled or pushed
// back to, so every vertex with a list or a moved cursor is in dirtyV.
func (h *HaoOrlinSolver) undoQuery() {
	h.st.resetTouched()
	for _, v := range h.dirtyV {
		h.excess[v] = 0
		sc := &h.scan[v]
		sc.cur, sc.actHead, sc.actCur = sc.lo, -1, -1
	}
	h.dirtyV = h.dirtyV[:0]
	h.act = h.act[:0]
}

// relabelToRoot recomputes exact distance-to-root labels on the CURRENT
// residual by backward BFS and rebuilds heightCount. Vertices that
// cannot reach the root get height n (dormant: no preflow from them can
// ever arrive, matching the n-height convention). Shared by the
// per-source rootRelabel (fresh residual) and the mid-query refresh.
func (h *HaoOrlinSolver) relabelToRoot(root int32) {
	n := int32(h.st.n)
	height := h.height
	for i := range height {
		height[i] = n
	}
	for i := range h.heightCount {
		h.heightCount[i] = 0
	}
	height[root] = 0
	first, last, to, rev, cap := h.st.first, h.st.last, h.st.to, h.st.rev, h.st.cap
	queue := h.queue[:0]
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		hv1 := height[v] + 1
		for a := first[v]; a < last[v]; a++ {
			u := to[a]
			// Residual arc u->v exists iff the reverse partner of the
			// v->u arc has capacity.
			if cap[rev[a]] > 0 && height[u] == n && u != root {
				height[u] = hv1
				queue = append(queue, u)
			}
		}
	}
	h.queue = queue
	for v := int32(0); v < n; v++ {
		h.heightCount[height[v]]++
	}
}

// rootRelabel computes the fresh-residual distance labels to the root
// and caches them in srcHeight/srcHeightCount, together with the total
// fresh capacity into the root (the sweep-wide flow upper bound). The
// first call after a rebind also rebuilds the spans.
func (h *HaoOrlinSolver) rootRelabel() {
	if h.spanStale {
		h.buildSpans()
		h.spanStale = false
	}
	h.relabelToRoot(h.root)
	copy(h.srcHeight, h.height)
	copy(h.srcHeightCount, h.heightCount)
	h.rootCapIn = 0
	for a := h.st.first[h.root]; a < h.st.last[h.root]; a++ {
		h.rootCapIn += int64(h.st.cap[h.st.rev[a]])
	}
}

// buildSpans sets every vertex's span to the tightest arc range that holds
// its arcs with cap0 > 0 (empty when it has none) and puts the scan state
// in its between-queries form. O(arcs).
func (h *HaoOrlinSolver) buildSpans() {
	first, last, cap0 := h.st.first, h.st.last, h.st.cap0
	for v := range h.scan {
		lo, hi := first[v], first[v]
		for a := first[v]; a < last[v]; a++ {
			if cap0[a] > 0 {
				if hi == lo {
					lo = a
				}
				hi = a + 1
			}
		}
		h.scan[v] = vertexScan{lo: lo, hi: hi, cur: lo, actHead: -1, actCur: -1}
	}
}

// MaxFlow implements Solver.
func (h *HaoOrlinSolver) MaxFlow(s, t int) int {
	return h.MaxFlowLimit(s, t, int(^uint(0)>>1))
}

// MaxFlowLimit implements Solver. In the reversed store the query injects
// preflow at t and drains it toward the fixed root s.
func (h *HaoOrlinSolver) MaxFlowLimit(s, t, limit int) int {
	n := int32(h.st.n)
	if s < 0 || int32(s) >= n || t < 0 || int32(t) >= n {
		panic(fmt.Sprintf("maxflow: query (%d,%d) out of range [0,%d)", s, t, n))
	}
	if s == t {
		panic("maxflow: source equals target")
	}
	if int32(s) != h.root {
		h.PrepareSource(s)
	}
	h.undoQuery()

	// Per-query state restore: cached labels and empty buckets (undoQuery
	// rewound the cursors). All O(n) sequential writes — the whole point
	// of the fixed root is that no per-query graph search happens here.
	copy(h.height, h.srcHeight)
	copy(h.heightCount, h.srcHeightCount)
	for i := range h.bucketHead {
		h.bucketHead[i] = -1
	}
	h.highest = 0
	h.relabels = 0

	inj, root := int32(t), h.root
	if h.height[inj] >= n {
		// No fresh-residual path from the injection vertex to the root:
		// the max flow is zero, no routing needed.
		return 0
	}
	// Bounded injection: instead of saturating every arc out of inj
	// (standard preflow start, which then drags indeg(t)-kappa units of
	// undeliverable excess uphill until they park dormant), model a
	// virtual super-source with one arc of capacity U into inj, where U
	// upper-bounds the answer: U = min(limit, total capacity out of inj,
	// total capacity into the root). The computed value is exactly
	// min(U, kappa) — exact whenever it lands below the limit, which is
	// all the sweep bookkeeping relies on — and the dormant surplus
	// shrinks from indeg(t)-kappa to U-kappa, usually ~zero. inj stays a
	// regular vertex at its cached height; its leftover excess simply
	// remains parked on it at termination.
	u64 := int64(limit)
	if h.rootCapIn < u64 {
		u64 = h.rootCapIn
	}
	var outSum int64 // fresh residual: nothing outside the span has capacity
	for a := h.scan[inj].lo; a < h.scan[inj].hi; a++ {
		outSum += int64(h.st.cap[a])
	}
	if outSum < u64 {
		u64 = outSum
	}
	if u64 <= 0 {
		return 0
	}
	h.excess[inj] = u64
	h.dirtyV = append(h.dirtyV, inj)
	h.activate(inj)

	for int(h.excess[root]) < limit {
		u := h.popHighest(n)
		if u < 0 {
			break
		}
		h.discharge(u, root, n)
		if h.relabels > h.st.n {
			h.midRelabel(root)
			h.relabels = 0
		}
	}
	return int(h.excess[root])
}

// The bucket/discharge/relabel machinery below is the highest-label
// push-relabel core of HIPR, the paper's solver, with the s/t exclusions
// reduced to the root.

// activate inserts v into its height bucket and raises the highest-active
// watermark.
func (h *HaoOrlinSolver) activate(v int32) {
	hh := h.height[v]
	h.nextActive[v] = h.bucketHead[hh]
	h.bucketHead[hh] = v
	if hh > h.highest {
		h.highest = hh
	}
}

// popHighest removes and returns the active vertex with the greatest
// height below n, or -1 if none remain.
func (h *HaoOrlinSolver) popHighest(n int32) int32 {
	if h.highest >= n {
		h.highest = n - 1
	}
	for h.highest >= 0 {
		if u := h.bucketHead[h.highest]; u >= 0 {
			h.bucketHead[h.highest] = h.nextActive[u]
			if h.height[u] == h.highest && h.excess[u] > 0 {
				return u
			}
			continue
		}
		h.highest--
	}
	return -1
}

// discharge pushes u's excess along admissible arcs, relabeling as
// needed, until the excess is gone or u joins the dormant set (height >=
// n: excess parks there and the undo log drops it after the query). It
// scans u's span from its cursor, then u's activation list from its list
// cursor. What the scan reads per arc lives in locals — the stores of a
// push may alias any slice reached through h, which would otherwise force
// a reload per iteration — and is written back on exit; relabel owns the
// cursors while it runs.
func (h *HaoOrlinSolver) discharge(u, root, n int32) {
	to, capa, rev, height := h.st.to, h.st.cap, h.st.rev, h.height
	su := &h.scan[u]
	hi, a, l := su.hi, su.cur, su.actCur
	e, hu := h.excess[u], height[u]
	for hu < n {
		// Next admissible arc b: the rest of the span, then of the list.
		b := int32(-1)
		for ; a < hi; a++ {
			if capa[a] > 0 && height[to[a]]+1 == hu {
				b = a
				break
			}
		}
		if b < 0 {
			for ; l >= 0; l = h.act[l].next {
				if c := h.act[l].arc; capa[c] > 0 && height[to[c]]+1 == hu {
					b = c
					break
				}
			}
		}
		if b < 0 {
			h.relabel(u, n)
			hu, a, l = height[u], su.cur, su.actCur
			continue
		}

		// Push min(e, cap) along b = u->v.
		v, r := to[b], rev[b]
		amt := int64(capa[b])
		if e < amt {
			amt = e
		}
		h.st.touch(b)
		capa[b] -= int32(amt)
		if sv := &h.scan[v]; capa[r] == 0 && (r < sv.lo || r >= sv.hi) {
			// r = v->u turns residual outside v's span: from now on v's
			// scans reach it through v's list. It is inadmissible until v
			// is relabelled (height[v] == hu-1), so it may go in front of
			// v's list cursor.
			h.act = append(h.act, actEntry{arc: r, next: sv.actHead})
			sv.actHead = int32(len(h.act) - 1)
		}
		capa[r] += int32(amt)
		before := h.excess[v]
		if before == 0 {
			h.dirtyV = append(h.dirtyV, v)
			if v != root && height[v] < n {
				h.activate(v)
			}
		}
		h.excess[v] = before + amt
		if e -= amt; e == 0 {
			break // the cursor stays on b, which may have capacity left
		}
		if a < hi { // b is saturated: step the cursor that produced it
			a++
		} else {
			l = h.act[l].next
		}
	}
	su.cur, su.actCur = a, l
	h.excess[u] = e
}

// relabel lifts u to one above its lowest residual neighbour and leaves
// the cursors at the first arc, in scan order, that attains that minimum:
// every arc before it is saturated or leads to a vertex at least as high
// as u's new label, so it is inadmissible until u is relabelled again.
func (h *HaoOrlinSolver) relabel(u, n int32) {
	h.relabels++
	to, capa, height := h.st.to, h.st.cap, h.height
	old := height[u]
	h.heightCount[old]--
	// Gap heuristic: if u was the last vertex at its height, everything
	// above that height joins the dormant set in one sweep.
	if h.heightCount[old] == 0 && old < n {
		for v := int32(0); v < n; v++ {
			if height[v] > old && height[v] < n {
				h.heightCount[height[v]]--
				height[v] = n + 1
			}
		}
		height[u] = n + 1
		return
	}
	su := &h.scan[u]
	minH := 2 * n
	cur, actCur := su.hi, su.actHead
	for a := su.lo; a < su.hi; a++ {
		if capa[a] > 0 && height[to[a]] < minH {
			minH, cur = height[to[a]], a
		}
	}
	for l := su.actHead; l >= 0; l = h.act[l].next {
		if a := h.act[l].arc; capa[a] > 0 && height[to[a]] < minH {
			minH, cur, actCur = height[to[a]], su.hi, l
		}
	}
	if minH == 2*n { // no residual arc left: dormant
		height[u] = n + 1
		return
	}
	height[u] = minH + 1
	h.heightCount[minH+1]++
	su.cur, su.actCur = cur, actCur
}

// midRelabel is the every-n-relabels refresh within one query: exact
// distance labels to the root on the CURRENT residual, buckets rebuilt
// from live excess. It writes h.height only — the per-source srcHeight
// cache stays pinned to the fresh residual. The injection vertex is a
// regular vertex here (the conceptual super-source is the saturated
// virtual arc feeding it), so nothing is excluded from the search except
// unreachable vertices, which keep height n.
func (h *HaoOrlinSolver) midRelabel(root int32) {
	n := int32(h.st.n)
	h.relabelToRoot(root)
	for v := range h.scan {
		sc := &h.scan[v]
		sc.cur, sc.actCur = sc.lo, sc.actHead
	}
	for i := range h.bucketHead {
		h.bucketHead[i] = -1
	}
	h.highest = 0
	for v := int32(0); v < n; v++ {
		if v != root && h.excess[v] > 0 && h.height[v] < n {
			h.activate(v)
		}
	}
}
