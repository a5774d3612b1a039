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
// the flow it actually routes. The per-query global relabel — 68% of
// snapshot-analysis time when every sink pays for its own — disappears
// from the per-sink cost entirely.
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
// MaxFlowLimit may overshoot its limit (any value in [limit, true flow]):
// the early exit fires as soon as the root's excess reaches the limit.
// Values below the limit are exact.
type HaoOrlinSolver struct {
	st arcStore // REVERSED-orientation residual arcs

	height      []int32
	heightCount []int32
	excess      []int64
	cur         []int32 // current-arc cursor per vertex
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

	root      int32 // prepared forward-source (= reversed sink); -1 invalid
	rootCapIn int64 // fresh residual capacity into the root (flow upper bound)
	relabels  int   // since last mid-query global relabel

	// revSrc adapts the caller's EdgeSource for init without boxing a
	// fresh interface value per Reset (the engine's steady state must not
	// allocate). The wrapped source is dropped after init.
	revSrc reversedSource
}

var _ Solver = (*HaoOrlinSolver)(nil)

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
	h.cur = growInt32(h.cur, n)
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
	h.root = -1
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
	h.root = -1
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
	h.root = -1
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

// undoQuery restores the fresh residual and zero excess by replaying the
// previous query's logs.
func (h *HaoOrlinSolver) undoQuery() {
	h.st.resetTouched()
	for _, v := range h.dirtyV {
		h.excess[v] = 0
	}
	h.dirtyV = h.dirtyV[:0]
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
// fresh capacity into the root (the sweep-wide flow upper bound).
func (h *HaoOrlinSolver) rootRelabel() {
	h.relabelToRoot(h.root)
	copy(h.srcHeight, h.height)
	copy(h.srcHeightCount, h.heightCount)
	h.rootCapIn = 0
	for a := h.st.first[h.root]; a < h.st.last[h.root]; a++ {
		h.rootCapIn += int64(h.st.cap[h.st.rev[a]])
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

	// Per-query state restore: cached labels, fresh cursors, empty
	// buckets. All O(n) sequential writes — the whole point of the fixed
	// root is that no per-query graph search happens here.
	copy(h.height, h.srcHeight)
	copy(h.heightCount, h.srcHeightCount)
	copy(h.cur, h.st.first[:h.st.n])
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
	var outSum int64
	for a := h.st.first[inj]; a < h.st.last[inj]; a++ {
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
// n: excess parks there and the undo log drops it after the query).
func (h *HaoOrlinSolver) discharge(u, root, n int32) {
	for h.excess[u] > 0 && h.height[u] < n {
		if h.cur[u] >= h.st.last[u] {
			h.relabel(u, n)
			continue
		}
		a := h.cur[u]
		v := h.st.to[a]
		if h.st.cap[a] > 0 && h.height[u] == h.height[v]+1 {
			h.push(u, v, a, root, n)
		} else {
			h.cur[u]++
		}
	}
}

func (h *HaoOrlinSolver) push(u, v, a, root, n int32) {
	amt := int64(h.st.cap[a])
	if h.excess[u] < amt {
		amt = h.excess[u]
	}
	h.st.touch(a)
	r := h.st.rev[a]
	h.st.cap[a] -= int32(amt)
	h.st.cap[r] += int32(amt)
	before := h.excess[v]
	if before == 0 {
		h.dirtyV = append(h.dirtyV, v)
		if v != root && h.height[v] < n {
			h.activate(v)
		}
	}
	h.excess[v] = before + amt
	h.excess[u] -= amt
}

func (h *HaoOrlinSolver) relabel(u, n int32) {
	h.relabels++
	old := h.height[u]
	h.heightCount[old]--
	// Gap heuristic: if u was the last vertex at its height, everything
	// above that height joins the dormant set in one sweep.
	if h.heightCount[old] == 0 && old < n {
		for v := int32(0); v < n; v++ {
			if h.height[v] > old && h.height[v] < n {
				h.heightCount[h.height[v]]--
				h.height[v] = n + 1
			}
		}
		h.height[u] = n + 1
		return
	}
	minH := int32(2*h.st.n) + 1
	for a := h.st.first[u]; a < h.st.last[u]; a++ {
		if h.st.cap[a] > 0 && h.height[h.st.to[a]] < minH {
			minH = h.height[h.st.to[a]]
		}
	}
	if minH >= 2*n {
		h.height[u] = n + 1
		return
	}
	h.height[u] = minH + 1
	h.heightCount[minH+1]++
	h.cur[u] = h.st.first[u]
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
	copy(h.cur, h.st.first[:h.st.n])
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
