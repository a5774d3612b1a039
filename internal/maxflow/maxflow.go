// Package maxflow implements the two maximum-flow solvers of the
// connectivity pipeline: Dinic's algorithm (asymptotically optimal on the
// unit-capacity graphs produced by Even's transformation, O(E*sqrt(V));
// it extracts the minimum cuts and cross-checks the sweeps) and a
// Hao-Orlin-inspired fixed-root push-relabel sweep solver (HaoOrlinSolver,
// the connectivity engine's default) that amortizes the distance labels of
// a one-source/all-sinks sweep to one search per source; its discharge
// core is the highest-label push-relabel of the paper's own solver,
// Cherkassky & Goldberg's HIPR, scanning per vertex only the arcs that can
// carry flow: a span covering the arcs with original capacity, plus the
// list of backward arcs the current query has made residual (two
// invariants keep that exact — a vertex with a non-empty list is in the
// query's undo log, and a freshly activated arc is inadmissible until its
// tail is relabelled — and because bounded injection makes every value
// exactly min(limit, flow), results do not depend on the order arcs are
// tried; see HaoOrlinSolver). The solvers are reusable at four levels,
// extending the paper's modified HIPR — which was rebuilt once per graph
// and answered many vertex-pair queries per invocation:
//
//   - across queries: a solver answers many (source, target) queries on
//     its graph, restoring only the residual capacities each query touched
//     instead of rewriting the whole capacity array;
//   - across sources: PrepareSource caches what a fixed source shares
//     between every target on a fresh residual — the first-phase BFS level
//     graph (Dinic), the distance labels rooted at the source (HaoOrlin);
//   - across graphs: Reset re-binds a solver to a new edge list in place,
//     reusing every internal array whose capacity suffices, so sweeping
//     analyses pay for allocation once per graph *shape* rather than once
//     per snapshot;
//   - across snapshots: ApplyUnitDelta patches the bound graph's arc
//     layout in place for small edge deltas — tombstoning removals,
//     reviving re-additions, inserting novel edges into per-vertex slack
//     — so adjacent-snapshot rebinding costs O(|delta|) instead of a full
//     re-init, with traversal order (and hence extracted cuts) identical
//     to a fresh build on the connectivity pipeline's Even-transformed
//     graphs.
package maxflow

import "fmt"

// Edge is a directed edge with capacity, as fed to a solver constructor.
type Edge struct {
	U, V int
	Cap  int32
}

// EdgeSource yields a graph's capacitated edges by index. It lets solvers
// consume edge lists of any element type — e.g. graph.Edge with implicit
// unit capacities — without materializing an intermediate []Edge copy.
type EdgeSource interface {
	// NumEdges returns the number of edges.
	NumEdges() int
	// EdgeAt returns the i-th edge as (tail, head, capacity).
	EdgeAt(i int) (u, v int, cap int32)
}

// EdgeSlice adapts a []Edge to EdgeSource.
type EdgeSlice []Edge

// NumEdges implements EdgeSource.
func (s EdgeSlice) NumEdges() int { return len(s) }

// EdgeAt implements EdgeSource.
func (s EdgeSlice) EdgeAt(i int) (int, int, int32) {
	e := s[i]
	return e.U, e.V, e.Cap
}

// Solver answers repeated maximum-flow queries on a graph it can re-bind
// (Reset), patch by an edge delta (ApplyUnitDelta) and re-densify
// (Compact) in place.
type Solver interface {
	// MaxFlow returns the value of a maximum s-t flow. It may be called
	// repeatedly with different pairs; each call starts from zero flow.
	MaxFlow(s, t int) int
	// MaxFlowLimit is MaxFlow that may stop early once the flow value
	// reaches limit, returning at least min(limit, true max flow) and at
	// most the true max flow (HaoOrlin, and Dinic on unit capacities,
	// return exactly the minimum). It exists for min-of-max-flows searches
	// where values above the current minimum are irrelevant.
	MaxFlowLimit(s, t, limit int) int
	// N returns the number of vertices.
	N() int
	// Reset re-binds the solver to a new graph in place, reusing internal
	// arrays whose capacity suffices instead of reallocating. After Reset
	// the solver behaves exactly like a freshly constructed one.
	Reset(n int, edges EdgeSource)
	// PrepareSource hints that the following queries share source s,
	// letting the solver cache source-dependent state that is valid for
	// every target (Dinic caches the fresh-residual BFS level graph,
	// HaoOrlin the distance labels rooted at s). The cache is invalidated
	// by Reset and by PrepareSource with a different source.
	PrepareSource(s int)

	// ApplyUnitDelta patches the bound graph in place when it changes by
	// a small edge delta, instead of re-binding through Reset. Removed
	// edges are tombstoned — their arcs keep their slots with capacity
	// zero, preserving the arc layout and with it the solver's
	// deterministic traversal order — and added edges revive a previously
	// tombstoned slot or claim per-vertex slack. A vertex tombstone/revive
	// rides on the same mechanism: removing every incident edge of a
	// vertex leaves it isolated with its arc slots kept (the tombstoned
	// vertex), and a later burst of additions at that vertex — a fresh
	// population member recycling the slot — revives matching slots and
	// claims slack for the rest. When a burst outgrows a vertex's slack,
	// the vertex's whole arc region is relocated to fresh space with new
	// headroom (amortized O(deg), preserving live-arc order), so
	// membership-sized deltas always apply. ApplyUnitDelta reports false
	// only for deltas that are inconsistent with the bound graph (an
	// unknown removal, an addition colliding with a live arc, an
	// out-of-range endpoint) WITHOUT logically modifying the bound graph —
	// the verification pass precedes any capacity write — and the caller
	// falls back to a full Reset. Query-level caches (prepared sources)
	// may be dropped even on failure; the solver keeps answering
	// correctly for the old binding either way.
	//
	// The adjacent-snapshot contract: both sources name edges of the
	// solver's coordinate space (for the connectivity engine,
	// Even-transformed edges), and the delta must describe the transition
	// from the currently bound graph. Query-level caches are invalidated;
	// the expensive arc layout is what survives.
	ApplyUnitDelta(added, removed EdgeSource) bool
	// ArcStats reports the current arc-array occupancy.
	ArcStats() ArcStats
	// Compact re-densifies the arc store in place: it rebuilds the
	// forward-star layout from the live arcs only, dropping dead
	// relocation zones and tombstoned edge pairs and renewing per-vertex
	// slack. It is much cheaper than a full Reset — the bound graph, its
	// capacities, and per-vertex solver state survive; only per-arc caches
	// are rebuilt — and it preserves per-vertex live-arc order, so a
	// compacted solver keeps answering bit-identically to a freshly bound
	// one (dropped tombstones re-derive their fresh-build positions if
	// their edges return). Compact invalidates query-level caches exactly
	// like ApplyUnitDelta.
	Compact()
}

// ArcStats describes a solver's arc-array occupancy, the accounting
// behind threshold-triggered re-densification. Arcs is the arc-array
// length; it decomposes as Live + Tombstones + Slack + Dead. Live counts
// arcs of edges currently in the bound graph; Tombstones arcs of removed
// edges kept (capacity zero) for cheap revival; Slack the per-vertex
// insertion headroom; Dead the regions abandoned by arc-region
// relocations — the component that grows without bound under sustained
// membership churn until a re-densify reclaims it.
type ArcStats struct {
	Arcs        int
	Live        int
	Tombstones  int
	Slack       int
	Dead        int
	Relocations int // arc-region relocations since the last full bind
}

// DeadFrac returns the reclaimable fraction of the arc array — dead
// zones plus tombstones over the total — the quantity governance
// policies threshold to trigger Compact.
func (s ArcStats) DeadFrac() float64 {
	if s.Arcs == 0 {
		return 0
	}
	return float64(s.Dead+s.Tombstones) / float64(s.Arcs)
}

// Algorithm names a solver implementation.
type Algorithm int

// Available algorithms.
const (
	Dinic Algorithm = iota + 1
	HaoOrlin
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Dinic:
		return "dinic"
	case HaoOrlin:
		return "hao-orlin"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// NewSolver builds a solver of the requested algorithm.
func (a Algorithm) NewSolver(n int, edges []Edge) Solver {
	return a.NewSolverSource(n, EdgeSlice(edges))
}

// NewSolverSource builds a solver of the requested algorithm from an
// EdgeSource. An Algorithm that is neither Dinic nor HaoOrlin is a
// programming error and panics.
func (a Algorithm) NewSolverSource(n int, edges EdgeSource) Solver {
	switch a {
	case Dinic:
		return NewDinicSource(n, edges)
	case HaoOrlin:
		return NewHaoOrlinSource(n, edges)
	default:
		panic(fmt.Sprintf("maxflow: unknown algorithm %v", a))
	}
}

// UnitEdges converts a plain (u, v) edge list into unit-capacity edges.
func UnitEdges(pairs [][2]int) []Edge {
	out := make([]Edge, len(pairs))
	for i, p := range pairs {
		out[i] = Edge{U: p[0], V: p[1], Cap: 1}
	}
	return out
}

// arcSlack is the spare arc-slot capacity reserved per vertex at init:
// applyDelta inserts arcs for never-before-seen edges into these slots in
// place (two per edge, one at each endpoint), so a rebinding sweep over
// adjacent snapshots absorbs up to arcSlack novel-edge endpoints per
// vertex before a full rebuild — which then restores the slack — becomes
// necessary.
const arcSlack = 8

// arcStore is the shared residual-graph representation in forward-star
// layout: arcs are grouped contiguously by tail vertex, so the inner
// loops of BFS/DFS/discharge scan to/cap sequentially with no index
// indirection. Each original edge contributes a forward and a backward
// arc; rev maps an arc to its partner. Per-vertex arc order matches the
// historical CSR layout (ascending edge-list index), so traversal
// decisions — and with them residual states and extracted cuts — are
// bit-for-bit identical to earlier revisions.
//
// A vertex's live arcs occupy [first[v], last[v]); the remainder of its
// region up to bound[v] is insertion slack (self-partnered zero arcs,
// never traversed). Edge deltas mutate the store in place: removals
// tombstone an arc (capacity zero, slot kept, preserving traversal
// order), additions revive a tombstone or claim a slack slot at the
// position a fresh build would have used. A delta that outgrows a
// vertex's slack relocates that vertex's region to fresh space at the
// array tail (see relocate), so regions are NOT necessarily laid out in
// vertex order after patching — only [first[v], bound[v]) per vertex is
// meaningful, and abandoned regions stay behind as dead zero arcs that
// whole-array passes tolerate.
type arcStore struct {
	n     int
	to    []int32 // arc -> head vertex
	cap   []int32 // arc -> residual capacity (mutated during a query)
	cap0  []int32 // arc -> original capacity (for reset between queries)
	rev   []int32 // arc -> its reverse arc
	first []int32 // vertex -> first arc index; first[n] bounds the fresh build
	last  []int32 // vertex -> one past its last live arc
	bound []int32 // vertex -> one past its slack region (first[v+1] at init)
	// dirty records arcs whose residual capacity changed since the last
	// reset, so resetTouched restores only what a query actually moved —
	// augmenting a handful of unit paths instead of copying the whole
	// capacity array. Both solvers route every capacity mutation through
	// touch.
	dirty []int32
	pos   []int32 // per-vertex scratch: init cursor, delta slack counting
	// relocs counts arc-region relocations since the last init: each one
	// leaves a dead zone behind, so the count (with stats' dead total) is
	// the observable trail of the memory the store owes a redensify.
	relocs int
}

// init (re)binds the store to a graph, reusing slices whose capacity
// suffices.
func (s *arcStore) init(n int, edges EdgeSource) {
	if n < 0 {
		panic(fmt.Sprintf("maxflow: negative vertex count %d", n))
	}
	m := edges.NumEdges()
	s.n = n
	s.first = growInt32(s.first, n+1)
	s.last = growInt32(s.last, n)
	s.bound = growInt32(s.bound, n)
	for i := range s.first {
		s.first[i] = 0
	}
	for i := 0; i < m; i++ {
		u, v, c := edges.EdgeAt(i)
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if c < 0 {
			panic(fmt.Sprintf("maxflow: negative capacity on edge (%d,%d)", u, v))
		}
		s.first[u]++
		s.first[v]++
	}
	var total int32
	for v := 0; v < n; v++ {
		deg := s.first[v]
		s.first[v] = total
		s.last[v] = total + deg
		total += deg + arcSlack
		s.bound[v] = total
	}
	s.first[n] = total
	s.to = growInt32(s.to, int(total))
	s.cap = growInt32(s.cap, int(total))
	s.cap0 = growInt32(s.cap0, int(total))
	s.rev = growInt32(s.rev, int(total))
	s.pos = growInt32(s.pos, n)
	next := s.pos
	copy(next, s.first[:n])
	for i := 0; i < m; i++ {
		u, v, c := edges.EdgeAt(i)
		fwd, bwd := next[u], next[v]
		next[u]++
		next[v]++
		s.to[fwd] = int32(v)
		s.to[bwd] = int32(u)
		s.cap[fwd] = c
		s.cap[bwd] = 0
		s.rev[fwd] = bwd
		s.rev[bwd] = fwd
	}
	// Slack slots: self-partnered zero arcs, harmless to whole-array
	// passes (capacity copies, mirror rebuilds) and invisible to
	// traversal, which stops at last[v].
	for v := 0; v < n; v++ {
		for q := s.last[v]; q < s.bound[v]; q++ {
			s.to[q] = 0
			s.cap[q] = 0
			s.rev[q] = q
		}
	}
	copy(s.cap0, s.cap)
	s.dirty = s.dirty[:0]
	s.relocs = 0
}

// stats scans the store and classifies every arc slot (see ArcStats).
// O(arcs); meant for off-hot-path governance checks, not inner loops.
func (s *arcStore) stats() ArcStats {
	st := ArcStats{Arcs: len(s.to), Relocations: s.relocs}
	var used int32
	for v := 0; v < s.n; v++ {
		used += s.bound[v] - s.first[v]
		st.Slack += int(s.bound[v] - s.last[v])
		for a := s.first[v]; a < s.last[v]; a++ {
			if s.cap0[a] > 0 || s.cap0[s.rev[a]] > 0 {
				st.Live++
			} else {
				st.Tombstones++
			}
		}
	}
	st.Dead = st.Arcs - int(used)
	return st
}

// redensify rebuilds the forward-star layout from the live arcs only:
// vertex regions return to vertex order with renewed arcSlack headroom,
// dead relocation zones and tombstoned edge pairs are dropped, and the
// arrays are reallocated at exact size, releasing the grown backing
// memory. Per-vertex live-arc order is preserved — and with tombstones
// gone it coincides with a fresh build's order (fresh builds have no
// tombstones either), so traversal decisions stay bit-identical to a
// full rebind. Edges that later re-add after their tombstone was dropped
// re-derive fresh-build positions through insertSlot.
//
// The residual is left fresh (cap == cap0, empty dirty log), so callers
// must invalidate warm-start caches exactly as they do for a delta.
func (s *arcStore) redensify() {
	n := s.n
	remap := make([]int32, len(s.to))
	newFirst := make([]int32, n+1)
	newLast := make([]int32, n)
	newBound := make([]int32, n)
	var total int32
	for v := 0; v < n; v++ {
		newFirst[v] = total
		next := total
		for a := s.first[v]; a < s.last[v]; a++ {
			if s.cap0[a] > 0 || s.cap0[s.rev[a]] > 0 {
				remap[a] = next
				next++
			} else {
				remap[a] = -1
			}
		}
		newLast[v] = next
		total = next + arcSlack
		newBound[v] = total
	}
	newFirst[n] = total
	newTo := make([]int32, total)
	newCap0 := make([]int32, total)
	newRev := make([]int32, total)
	for v := 0; v < n; v++ {
		for a := s.first[v]; a < s.last[v]; a++ {
			na := remap[a]
			if na < 0 {
				continue
			}
			newTo[na] = s.to[a]
			newCap0[na] = s.cap0[a]
			newRev[na] = remap[s.rev[a]] // liveness is pair-symmetric: never -1
		}
		for q := newLast[v]; q < newBound[v]; q++ {
			newRev[q] = q // slack: self-partnered zero arcs
		}
	}
	newCap := make([]int32, total)
	copy(newCap, newCap0)
	s.to, s.cap, s.cap0, s.rev = newTo, newCap, newCap0, newRev
	s.first, s.last, s.bound = newFirst, newLast, newBound
	s.dirty = s.dirty[:0]
	s.relocs = 0
}

// touch records an arc whose capacity is about to change, so resetTouched
// can restore it (and its reverse).
func (s *arcStore) touch(a int32) {
	s.dirty = append(s.dirty, a)
}

// resetTouched restores the residual capacities recorded via touch.
func (s *arcStore) resetTouched() {
	for _, a := range s.dirty {
		s.cap[a] = s.cap0[a]
		r := s.rev[a]
		s.cap[r] = s.cap0[r]
	}
	s.dirty = s.dirty[:0]
}

// findArc returns the index of the arc with tail u and head v, or -1.
// Callers must ensure the (u, v) pair identifies at most one interesting
// arc; the connectivity pipeline's Even-transformed graphs guarantee this
// for original (out-copy -> in-copy) edges, whose reverse pair never
// exists as an edge of its own.
func (s *arcStore) findArc(u, v int32) int32 {
	for a := s.first[u]; a < s.last[u]; a++ {
		if s.to[a] == v {
			return a
		}
	}
	return -1
}

// insertSlot opens a slot for a new arc (u -> head) at the position a
// fresh build would have used, shifting later arcs right into the slack
// region and re-aiming their partners' rev pointers. The caller must have
// checked slack availability (last[u] < bound[u]).
//
// Position rule: live and tombstoned arcs after the region's first slot
// are ordered by ascending head for the Even-transformed graphs the
// connectivity engine binds (the first slot holds the vertex's internal
// edge, whose edge index precedes every original edge). Inserting by that
// rule keeps a patched store's traversal order identical to a fresh
// build's, which is what makes patched and rebuilt solvers answer
// bit-identically. On arbitrary graphs the rule is merely *an* order —
// values stay exact, only cut tie-breaking could differ from a rebuild.
func (s *arcStore) insertSlot(u, head int32) int32 {
	pos := s.last[u]
	for pos > s.first[u]+1 && s.to[pos-1] > head {
		pos--
	}
	for q := s.last[u]; q > pos; q-- {
		s.to[q] = s.to[q-1]
		s.cap[q] = s.cap[q-1]
		s.cap0[q] = s.cap0[q-1]
		r := s.rev[q-1]
		s.rev[q] = r
		s.rev[r] = q
	}
	s.last[u]++
	return pos
}

// relocate moves u's arc region to fresh space at the array tail, with
// room for extra more arcs plus renewed arcSlack. Live and tombstoned
// arcs keep their relative order (the traversal-order contract), partner
// rev pointers are re-aimed, and the abandoned region is zeroed into
// dead self-partnered arcs that no per-vertex loop ever visits again.
// This is what lets a vertex tombstone/revive cycle — a population slot
// whose new occupant has more edges than the old one's region can hold —
// patch in place instead of forcing a full rebuild.
func (s *arcStore) relocate(u, extra int32) {
	size := s.last[u] - s.first[u]
	newCap := size + extra + arcSlack
	start := int32(len(s.to))
	for i := int32(0); i < newCap; i++ {
		s.to = append(s.to, 0)
		s.cap = append(s.cap, 0)
		s.cap0 = append(s.cap0, 0)
		s.rev = append(s.rev, start+i)
	}
	for i := int32(0); i < size; i++ {
		old := s.first[u] + i
		a := start + i
		s.to[a] = s.to[old]
		s.cap[a] = s.cap[old]
		s.cap0[a] = s.cap0[old]
		r := s.rev[old]
		s.rev[a] = r
		s.rev[r] = a
		s.to[old] = 0
		s.cap[old] = 0
		s.cap0[old] = 0
		s.rev[old] = old
	}
	s.first[u] = start
	s.last[u] = start + size
	s.bound[u] = start + newCap
	s.relocs++
}

// insertArcPair inserts the arc (u, v) with capacity c and its
// zero-capacity partner.
func (s *arcStore) insertArcPair(u, v, c int32) {
	pu := s.insertSlot(u, v)
	pv := s.insertSlot(v, u)
	s.to[pu] = v
	s.cap[pu] = c
	s.cap0[pu] = c
	s.rev[pu] = pv
	s.to[pv] = u
	s.cap[pv] = 0
	s.cap0[pv] = 0
	s.rev[pv] = pu
}

// deltaEdge reads the i-th edge of src, swapping endpoints for stores
// initialized through a reversedSource.
func deltaEdge(src EdgeSource, i int, reversed bool) (int, int, int32) {
	u, v, c := src.EdgeAt(i)
	if reversed {
		return v, u, c
	}
	return u, v, c
}

// applyDelta patches the store in place: arcs named by removed are
// tombstoned (capacity zeroed, slot and arc order kept), arcs named by
// added either revive their tombstone at the capacity the source reports
// or — for edges never seen in any earlier binding — claim per-vertex
// slack slots at fresh-build positions. An endpoint whose slack cannot
// absorb its share of the additions has its region relocated to fresh
// tail space first (see relocate), so slack exhaustion never fails a
// delta. Patching is logically atomic: a verification pass runs first,
// and if any addition collides with a live arc, any removal names a
// missing or empty arc, or any endpoint is out of range, the bound graph
// is left unmodified (relocations may have moved arc slots, which is
// invisible to queries) and false is returned so the caller falls back
// to a full rebuild.
//
// Preconditions: the residual has been reset (cap == cap0 everywhere),
// and the two sources each name distinct edges (a diff, not a log).
func (s *arcStore) applyDelta(added, removed EdgeSource, reversed bool) bool {
	n := int32(s.n)
	na, nr := added.NumEdges(), removed.NumEdges()
	for i := 0; i < na; i++ {
		u, v, _ := deltaEdge(added, i, reversed)
		if u < 0 || int32(u) >= n || v < 0 || int32(v) >= n || u == v {
			return false
		}
		s.pos[u], s.pos[v] = 0, 0 // slack-demand counters for this delta
	}
	for i := 0; i < na; i++ {
		u, v, _ := deltaEdge(added, i, reversed)
		a := s.findArc(int32(u), int32(v))
		if a >= 0 {
			if s.cap0[a] != 0 {
				return false // addition collides with a live arc
			}
			continue // revival: no slack needed
		}
		s.pos[u]++
		s.pos[v]++
	}
	for i := 0; i < nr; i++ {
		u, v, _ := deltaEdge(removed, i, reversed)
		if u < 0 || int32(u) >= n || v < 0 || int32(v) >= n {
			return false
		}
		a := s.findArc(int32(u), int32(v))
		if a < 0 || s.cap0[a] <= 0 {
			return false
		}
	}
	// Verification passed: relocate any endpoint whose slack cannot
	// absorb its share of the novel arcs. Relocation preserves the bound
	// graph (and live-arc order), so a later rejected delta would still
	// leave the store logically untouched.
	for i := 0; i < na; i++ {
		u, v, _ := deltaEdge(added, i, reversed)
		if s.pos[u] > 0 && s.last[u]+s.pos[u] > s.bound[u] {
			s.relocate(int32(u), s.pos[u])
		}
		if s.pos[v] > 0 && s.last[v]+s.pos[v] > s.bound[v] {
			s.relocate(int32(v), s.pos[v])
		}
	}
	for i := 0; i < nr; i++ {
		u, v, _ := deltaEdge(removed, i, reversed)
		a := s.findArc(int32(u), int32(v))
		s.cap0[a] = 0
		s.cap[a] = 0
	}
	for i := 0; i < na; i++ {
		u, v, c := deltaEdge(added, i, reversed)
		if a := s.findArc(int32(u), int32(v)); a >= 0 {
			s.cap0[a] = c
			s.cap[a] = c
		} else {
			s.insertArcPair(int32(u), int32(v), c)
		}
	}
	return true
}

// growInt32 returns a length-n slice, reusing s's backing array when its
// capacity suffices.
func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}
