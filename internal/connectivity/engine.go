package connectivity

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Workers bounds the sweep worker pool; <= 0 means GOMAXPROCS. Each
	// worker owns one private solver, replacing the paper's cluster fan-out.
	Workers int
}

// Query selects what one analysis (Engine.Analyze, or the one-shot
// package-level Analyze and GraphCut) computes.
type Query struct {
	// SampleFraction is the paper's c: the c*n smallest-out-degree
	// vertices are the flow sources. 0 or >= 1 means a full n(n-1) sweep;
	// negative and NaN values are input errors (see CheckSampleFraction).
	SampleFraction float64
	// MinOnly skips exact flow values above the running minimum, which
	// prunes work but leaves Avg meaningless (reported as NaN).
	MinOnly bool
}

// SnapshotQuery configures the fused per-snapshot analysis.
type SnapshotQuery struct {
	// SampleFraction is the paper's c, applied to both source groups.
	SampleFraction float64
	// AvgSeed seeds the uniform source selection of the Avg sweep.
	AvgSeed int64
	// MinOnly skips the Avg half: no uniform source is drawn or swept, and
	// the result's Avg reports no pairs. Min is exactly what the fused
	// analysis reports, and a later query of the same binding without the
	// flag still finds it memoized.
	MinOnly bool
}

// SnapshotResult carries the two results of a fused snapshot analysis:
// Min is what a MinOnly Analyze would report, MinPair left unresolved;
// Avg is the exact sweep of c*n sources drawn uniformly with AvgSeed, an
// unbiased estimate of the mean pair connectivity.
type SnapshotResult struct {
	Min Result
	Avg Result
}

// Engine is a reusable connectivity analysis engine: it binds to one
// graph at a time and answers Min, Avg, MinPair and minimum-vertex-cut
// queries against that binding, keeping every expensive structure — the
// Even-transformed edge list, one max-flow solver per worker, the
// cut-mode flow network, and all selection scratch — alive across
// bindings. Analyzing a sequence of same-shape graphs (the per-snapshot
// hot path at paper scale) therefore allocates only on the first
// binding, where a throwaway engine per call rebuilds O(workers*E) state
// per snapshot.
//
// Graphs bind in one of two styles: Bind takes a dense graph (every
// vertex live) and always binds in full — the one-shot form, and the
// from-scratch reference the churn oracle compares against. BindSlots
// takes a stable-slot graph plus its canonical compaction map, in which
// case the engine masks vacant slots and runs every query in compacted
// rank numbering — answers are interchangeable between the styles. Only
// the slot style rebinds incrementally (RebindSlots): slot identity is
// what keeps the vertex space alive across membership changes.
//
// The reuse contract: Bind/BindSlots invalidates all previous binding
// state and must be called before Analyze/AnalyzeSnapshot/PairCut/
// GraphCut; the bound graph must not be mutated until the next bind. An
// Engine is NOT safe for concurrent use — it parallelizes internally
// across Workers. Results are deterministic for a given graph and
// query, independent of the worker count.
//
// Lifetimes of the derived structures: even, cutEven and the flat
// successor arrays (succStart/succ) describe one binding generation and
// are rebuilt — lazily, in a serial section — after gen moves, and
// AnalyzeSnapshot's memo (rows, mins) holds answers for one generation
// and is ignored once gen moves; the fan closure scratch in each
// engineWorker describes one (source, threshold) and is reset per task.
// Release drops the solvers, the cut network, even/cutEven, succStart/succ
// and the fan scratch without moving gen; they are rebuilt by the same
// lazy paths, so only the binding, the memo and the counters outlive it.
// Everything else is sized once and reused.
type Engine struct {
	maxWorkers int

	// Binding state.
	g       *graph.Digraph
	n       int
	even    []graph.Edge // Even-transformed edge list, rebuilt per Bind
	evenSrc unitEdgeSource
	cutSrc  cutEdgeSource
	gen     uint64 // binding generation; solvers rebind lazily
	// evenDirty marks the Even edge list stale after a RebindSlots:
	// patched solvers never read it, so it is rebuilt lazily — and only
	// serially, before workers spawn — for solvers that need a full Reset.
	evenDirty bool
	// Flat successor arrays of g in the bound graph's numbering, ascending
	// per vertex: vertex u's out-neighbours are
	// succ[succStart[u]:succStart[u+1]]. The fan closure walks them instead
	// of g's adjacency rows; adjGen is the generation they were built for.
	succStart, succ []int32
	adjGen          uint64

	// Stable-slot (masked) binding state. With BindSlots the bound graph
	// lives in slot space — one vertex per population slot, vacant slots
	// isolated — while queries run in the canonical compacted rank space:
	// masked is true, nact counts the active vertices, slotOrder maps
	// dense rank -> slot (the capture's compaction map) and rankOf is its
	// inverse (-1 for vacant slots). For a dense Bind, masked is false
	// and nact == n with identity numbering. Sweep solvers stay bound to
	// the slot-space Even transform (flow values are mask-invariant: a
	// vacant slot's only arc is its never-usable internal edge), but the
	// cut-mode network is built in rank space via cutEven so extracted
	// cuts are bit-identical to a fresh bind of the compacted graph.
	masked    bool
	nact      int
	slotOrder []int
	rankOf    []int32
	cutEven   []graph.Edge
	cutDirty  bool // rank-space cut edge list stale (masked mode only)

	workers   []engineWorker
	cutSolver *maxflow.DinicSolver
	cutGen    uint64
	cutBuilds int

	// RebindSlots bookkeeping: reused Even-space delta adapters and the
	// counters the regression tests pin.
	addSrc, remSrc  evenDeltaSource
	rebindFallbacks int
	memberRebinds   int

	// Memory governance (see governance.go): the installed policy and the
	// deterministic primary-solver re-densify count.
	gov         GovernancePolicy
	redensifies int

	// Selection and sweep scratch, reused across bindings.
	rng      *rand.Rand
	degCount []int32
	orderBuf []int
	permBuf  []int
	allBuf   []int
	tasks    []sweepTask
	results  []taskResult
	idxBuf   []int
	state    sweepState // reused cross-worker coordination (zero steady-state allocs)

	// AnalyzeSnapshot's memo of the current generation: the exact Avg row
	// of every uniform source solved so far, by dense rank (valid where its
	// gen is the engine's), and the Min result of every source count asked
	// (valid while minsGen is the engine's gen).
	rows    []memoRow
	mins    []minMemo
	minsGen uint64
}

// memoRow is one memoized exact task result and the generation it was
// solved in.
type memoRow struct {
	gen uint64
	res taskResult
}

// minMemo is one memoized Min result and the source count it answers.
type minMemo struct {
	count int
	res   Result
}

// engineWorker holds one worker's lazily created solver — capped and exact
// tasks share it, MaxFlowLimit being min(limit, MaxFlow) on one arc store —
// its fan-closure scratch and its share of the engine's work counters.
type engineWorker struct {
	solver    maxflow.Solver
	solverGen uint64 // binding generation the solver is bound to
	fan       fanClosure
	// Pairs this worker answered with a flow (exact: of those, the Avg
	// rows') and from the closure; written once per sweep, read by
	// SweepFlows/SweepExact/SweepSettled between sweeps.
	flows, exact, settled int
}

// sweepTask evaluates one source against every non-adjacent target.
// Exact tasks compute full flow values (feeding Avg); capped tasks prune
// at the shared running minimum (feeding Min).
type sweepTask struct {
	src   int
	exact bool
}

// taskResult is one task's outcome. exactMin/exactMinTgt track the
// smallest flow among provably exact evaluations (and its smallest
// target); cappedMin/cappedMinTgt the same among evaluations that hit
// their cap, where only kappa >= value is known. resolveMinPair combines
// the two into the deterministic lexicographic minimum pair.
type taskResult struct {
	pairs        int
	sum          int64
	min          int
	minPair      [2]int
	exactMin     int
	exactMinTgt  int
	cappedMin    int
	cappedMinTgt int
}

// unitEdgeSource feeds graph.Edge lists to solvers with implicit unit
// capacities, avoiding the historical []maxflow.Edge copy.
type unitEdgeSource struct{ edges []graph.Edge }

func (s *unitEdgeSource) NumEdges() int { return len(s.edges) }
func (s *unitEdgeSource) EdgeAt(i int) (int, int, int32) {
	e := s.edges[i]
	return e.U, e.V, 1
}

// cutEdgeSource reinterprets the Even edge list as PairCut's cut-mode
// network: the first internal edges keep capacity 1, the rewired
// original edges get capacity big so the minimum cut lands on internal
// edges only (see PairCut).
type cutEdgeSource struct {
	edges    []graph.Edge
	internal int
	big      int32
}

func (s *cutEdgeSource) NumEdges() int { return len(s.edges) }
func (s *cutEdgeSource) EdgeAt(i int) (int, int, int32) {
	e := s.edges[i]
	if i < s.internal {
		return e.U, e.V, 1
	}
	return e.U, e.V, s.big
}

// evenDeltaSource presents an original-space edge delta in Even-transform
// coordinates at unit capacity. Only original edges appear in deltas
// (internal edges exist for every slot regardless of activity, and
// RebindSlots keeps the slot space), so the (Out(u), In(v)) shape is
// always right.
type evenDeltaSource struct{ edges []graph.Edge }

func (s *evenDeltaSource) NumEdges() int { return len(s.edges) }
func (s *evenDeltaSource) EdgeAt(i int) (int, int, int32) {
	e := s.edges[i]
	return graph.Out(e.U), graph.In(e.V), 1
}

// NewEngine is MustNewEngine with an error result, which is always nil:
// no option value is invalid.
func NewEngine(opts EngineOptions) (*Engine, error) {
	return MustNewEngine(opts), nil
}

// MustNewEngine returns an unbound Engine.
func MustNewEngine(opts EngineOptions) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		maxWorkers: opts.Workers,
		workers:    make([]engineWorker, opts.Workers),
		rng:        rand.New(rand.NewSource(1)),
	}
}

// Bind points the engine at g: it rebuilds the Even-transformed edge
// list into the engine's reused buffer and schedules every solver for an
// in-place rebind on first use. g must not be mutated while bound.
func (e *Engine) Bind(g *graph.Digraph) {
	e.bindFull(g, nil)
}

// BindSlots points the engine at a stable-slot graph: g has one vertex
// per population slot (vacant slots isolated) and order lists the active
// slots in canonical capture order — snapshot.SlotSnapshot's compaction
// map. Every query then runs in compacted rank space: sources, MinPair
// and cuts are reported in exactly the numbering a dense Bind of the
// compacted graph would use, so results are interchangeable between the
// two binding styles — what lets stable-slot rebinding hide behind the
// golden fixtures. g and order must not be mutated while bound.
func (e *Engine) BindSlots(g *graph.Digraph, order []int) {
	e.bindFull(g, order)
}

func (e *Engine) bindFull(g *graph.Digraph, order []int) {
	e.g = g
	e.n = g.N()
	e.setOrder(order)
	e.even = g.AppendEvenEdges(e.even[:0])
	e.evenSrc.edges = e.even
	e.cutDirty = true
	e.evenDirty = false
	e.gen++
}

// setOrder installs the rank <-> slot maps for a masked binding, or
// resets to dense identity numbering when order is nil.
func (e *Engine) setOrder(order []int) {
	if order == nil {
		e.masked = false
		e.nact = e.n
		e.slotOrder = e.slotOrder[:0]
		return
	}
	e.masked = true
	e.nact = len(order)
	e.slotOrder = append(e.slotOrder[:0], order...)
	if cap(e.rankOf) < e.n {
		e.rankOf = make([]int32, e.n)
	}
	e.rankOf = e.rankOf[:e.n]
	for i := range e.rankOf {
		e.rankOf[i] = -1
	}
	for r, s := range order {
		if s < 0 || s >= e.n || e.rankOf[s] >= 0 {
			panic(fmt.Sprintf("connectivity: invalid slot order entry %d at rank %d", s, r))
		}
		e.rankOf[s] = int32(r)
	}
}

// vtx translates a dense rank to the bound graph's vertex number: the
// identity for dense bindings, the slot for masked ones.
func (e *Engine) vtx(r int) int {
	if !e.masked {
		return r
	}
	return e.slotOrder[r]
}

// isCompleteActive reports whether every ordered pair of distinct ACTIVE
// vertices is an edge (IsComplete on the compacted graph).
func (e *Engine) isCompleteActive() bool {
	return e.g.M() == e.nact*(e.nact-1)
}

// RebindSlots points the engine at a stable-slot capture incrementally:
// g must be the currently bound slot graph plus delta (same slot count,
// same slot identity — cur = old - delta.Removed + delta.Added, as
// graph.DiffSlotsInto computes), and order the new capture's compaction
// map. Instead of rebuilding the Even transform and re-initializing every
// sweep solver, it patches each live one's arc layout in place and
// invalidates only the query-level caches the delta poisons (the sweep
// solver's root labels). Tombstoned arc slots preserve traversal order,
// so analyses after a RebindSlots are bit-identical to analyses after a
// full Bind of the compacted graph — the differential churn harness
// holds the two paths to that contract.
//
// The membership may have changed between the two captures — that is the
// point: joins, leaves and strikes keep their slots' identities, so the
// sweep solvers still patch in place from the edge delta alone, and only
// the rank-space structures follow the new order. The cut-mode network
// lives in rank space and is not patched: a RebindSlots that starts a
// new generation leaves it stale, and the next cut query re-initialises
// it in place from the compacted graph — cut queries are off the
// per-snapshot hot path, and their one production caller, the cutset
// adversary, binds every capture in full.
//
// With no previous slot binding or a different slot count (the slot
// table grew, or was compacted), RebindSlots falls back to BindSlots and
// reports false. A solver whose patch fails (a delta inconsistent with
// its binding) is left on the old generation and lazily re-initialized
// from the rebuilt Even list on next use; the engine stays consistent
// either way.
//
// An identical capture — an empty delta under an unchanged order — keeps
// the binding generation: every derived structure and memoized answer
// still describes g, so a repeated analysis is answered from the memo.
func (e *Engine) RebindSlots(g *graph.Digraph, delta graph.Delta, order []int) bool {
	if !e.masked || g.N() != e.n {
		e.BindSlots(g, order)
		return false
	}
	e.g = g
	if len(delta.Added) == 0 && len(delta.Removed) == 0 && slices.Equal(e.slotOrder, order) {
		return true
	}
	prevGen := e.gen
	e.gen++
	e.evenDirty = true
	e.cutDirty = true
	e.addSrc.edges, e.remSrc.edges = delta.Added, delta.Removed
	for i := range e.workers {
		w := &e.workers[i]
		if w.solver != nil && w.solverGen == prevGen {
			if w.solver.ApplyUnitDelta(&e.addSrc, &e.remSrc) {
				w.solverGen = e.gen
			} else {
				e.rebindFallbacks++
			}
		}
	}
	e.addSrc.edges, e.remSrc.edges = nil, nil
	if !slices.Equal(e.slotOrder, order) {
		e.setOrder(order)
		e.memberRebinds++
	}
	return true
}

// MembershipRebinds reports how many incremental rebinds crossed a
// membership change (joins, leaves or strikes between captures).
func (e *Engine) MembershipRebinds() int { return e.memberRebinds }

// RebindFallbacks reports how many solver patches failed during rebinds,
// forcing a lazy full re-initialization of that solver. Since arc-region
// relocation absorbed slack exhaustion, a patch fails only on a delta
// inconsistent with the bound graph — a wiring bug — so the churn oracle
// and the steady-state regression tests pin this to zero outright.
func (e *Engine) RebindFallbacks() int { return e.rebindFallbacks }

// Release drops every structure the binding can rebuild: the worker
// solvers and their fan-closure scratch, the cut-mode network, the Even
// edge lists and the flat successor arrays. It keeps the binding (graph,
// slot order, generation), AnalyzeSnapshot's memo and the cumulative
// counters. The next query that needs a solver rebuilds the rest through
// the same lazy paths a bind uses — at about the cost of one bind — and
// answers exactly as the unreleased engine would; a query the memo
// answers rebuilds nothing. A RebindSlots after a Release patches no
// solver (there is none) and so never counts a fallback. Holders of many
// idle bindings (the kadserve arena) call it so that a parked engine
// costs its answers, not its arc stores.
func (e *Engine) Release() {
	for i := range e.workers {
		w := &e.workers[i]
		w.solver, w.solverGen, w.fan = nil, 0, fanClosure{}
	}
	e.cutSolver, e.cutGen = nil, 0
	e.even, e.evenSrc.edges, e.evenDirty = nil, nil, true
	e.cutEven, e.cutSrc, e.cutDirty = nil, cutEdgeSource{}, true
	// A bound engine's gen is at least 1, so adjGen 0 is always stale.
	e.succStart, e.succ, e.adjGen = nil, nil, 0
}

// ensureEven rebuilds the Even edge list after a RebindSlots or a Release
// marked it stale (a bind rebuilds it eagerly). It must only run from the
// serial sections of the engine (before sweep workers spawn): the sweep's
// solver fast paths never call it.
func (e *Engine) ensureEven() {
	if !e.evenDirty {
		return
	}
	e.even = e.g.AppendEvenEdges(e.even[:0])
	e.evenSrc.edges = e.even
	e.evenDirty = false
}

// ensureAdjacency rebuilds the flat successor arrays when the binding
// generation moved. Like ensureEven it must only run serially: it is the
// one place the engine walks the bound graph's adjacency rows for
// the closure, once per generation instead of once per source.
func (e *Engine) ensureAdjacency() {
	if e.adjGen == e.gen {
		return
	}
	start, succ := append(e.succStart[:0], 0), e.succ[:0]
	for u := 0; u < e.n; u++ {
		succ = e.g.AppendSuccessors(succ, u)
		start = append(start, int32(len(succ)))
	}
	e.succStart, e.succ, e.adjGen = start, succ, e.gen
}

// SweepFlows reports how many sweep pairs a solver answered, exact and
// capped alike, over the engine's lifetime (cumulative across bindings); a
// row or Min answered from AnalyzeSnapshot's memo adds nothing.
// SweepSettled counts the capped pairs the fan closure answered without
// one. Both are deterministic at Workers: 1; with more workers the split
// depends on when each task read the running minimum, the results never.
func (e *Engine) SweepFlows() int {
	total := 0
	for i := range e.workers {
		total += e.workers[i].flows
	}
	return total
}

// SweepSettled is SweepFlows' counterpart: see there.
func (e *Engine) SweepSettled() int {
	total := 0
	for i := range e.workers {
		total += e.workers[i].settled
	}
	return total
}

// SweepExact reports how many of SweepFlows' pairs belonged to exact Avg
// rows — the Avg half's cost, deterministic at any worker count.
func (e *Engine) SweepExact() int {
	total := 0
	for i := range e.workers {
		total += e.workers[i].exact
	}
	return total
}

// ensureCut readies cutSrc for (re)building the cut-mode network. Under a
// dense binding it is the shared Even list, rebuilt first if a Release
// dropped it; under a masked one it is the compacted rank-space list —
// the numbering in which cut queries are asked and answered, and the
// reason a masked engine's cuts match a fresh bind of the compacted graph
// arc for arc.
func (e *Engine) ensureCut() {
	if !e.masked {
		e.ensureEven()
		e.cutSrc = cutEdgeSource{edges: e.even, internal: e.n, big: int32(e.n + 1)}
		return
	}
	if e.cutDirty {
		e.cutEven = e.g.AppendEvenEdgesCompact(e.cutEven[:0], e.slotOrder, e.rankOf)
		e.cutDirty = false
	}
	e.cutSrc = cutEdgeSource{edges: e.cutEven, internal: e.nact, big: int32(e.nact + 1)}
}

// CutNetworkBuilds reports how many times the engine constructed its
// cut-mode flow network from scratch. Rebinding to a new graph
// reinitializes the existing network in place, so the count stays at one
// across arbitrarily many same-shape bindings — the regression guard for
// the cutset adversary's strike loop. Only a Release, which drops the
// network, makes the next cut query build it again.
func (e *Engine) CutNetworkBuilds() int { return e.cutBuilds }

// solverFor returns worker w's sweep solver, creating or rebinding it to
// the current graph as needed. Every sweep runs on the fixed-root
// Hao–Orlin solver, whose MaxFlowLimit is exactly min(cap, kappa) here.
func (e *Engine) solverFor(w int) maxflow.Solver {
	ew := &e.workers[w]
	if ew.solver == nil {
		e.ensureEven()
		ew.solver = maxflow.NewHaoOrlinSource(2*e.n, &e.evenSrc)
		ew.solverGen = e.gen
	} else if ew.solverGen != e.gen {
		e.ensureEven()
		ew.solver.Reset(2*e.n, &e.evenSrc)
		ew.solverGen = e.gen
	}
	return ew.solver
}

// Analyze computes the connectivity of the bound graph over the sources
// q.SampleFraction selects: identical Min, Avg, Pairs, Sources and
// MinPair for any worker count.
func (e *Engine) Analyze(q Query) Result {
	if e.g == nil {
		panic("connectivity: Engine.Analyze before Bind")
	}
	n := e.nact
	if n <= 1 {
		return Result{N: n, Complete: true, MinPair: [2]int{-1, -1}}
	}
	if e.isCompleteActive() {
		return Result{N: n, Min: n - 1, Avg: float64(n - 1), Complete: true, MinPair: [2]int{-1, -1}}
	}
	sources := e.pickSources(q.SampleFraction)
	e.tasks = e.tasks[:0]
	for _, s := range sources {
		e.tasks = append(e.tasks, sweepTask{src: s, exact: !q.MinOnly})
	}
	e.runSweep(e.tasks)
	out := e.combine(e.results, len(sources))
	if out.Pairs == 0 {
		return out
	}
	if q.MinOnly {
		out.Avg = math.NaN()
		out.MinPair = e.resolveMinPair(e.tasks, e.results, out.Min)
	}
	return out
}

// AnalyzeSnapshot runs the fused per-snapshot analysis: one sweep over
// the union of the smallest-out-degree sources (pruned at the running
// minimum, feeding Min — exactly a MinOnly Analyze) and the seeded
// uniform sources (exact flows, feeding Avg). Fusing shares the Even
// transform, the solver pool and the worker fan-out between the two
// measurements the paper plots, instead of paying for each twice per
// snapshot. A MinOnly query runs the Min half alone, for callers that
// read no Avg.
//
// Answers are memoized per binding generation. An exact row — one
// uniform source's flows to all its targets — and the Min of a given
// source count are fixed by the bound graph, so a repeated analysis of
// one binding (a resample with another seed or fraction) sweeps only the
// uniform sources no earlier call of this generation solved, and skips
// the capped Min sweep when that count was already answered. Bind and
// BindSlots start a new generation, and so does every RebindSlots that
// changes the graph or its order, so a caller that rebinds before every
// analysis computes exactly what it did without the memo. The memo holds
// at most one row per active vertex.
func (e *Engine) AnalyzeSnapshot(q SnapshotQuery) SnapshotResult {
	if e.g == nil {
		panic("connectivity: Engine.AnalyzeSnapshot before Bind")
	}
	n := e.nact
	if n <= 1 {
		r := Result{N: n, Complete: true, MinPair: [2]int{-1, -1}}
		return SnapshotResult{Min: r, Avg: r}
	}
	if e.isCompleteActive() {
		r := Result{N: n, Min: n - 1, Avg: float64(n - 1), Complete: true, MinPair: [2]int{-1, -1}}
		return SnapshotResult{Min: r, Avg: r}
	}
	if e.minsGen != e.gen {
		e.mins, e.minsGen = e.mins[:0], e.gen
	}
	if len(e.rows) < n {
		e.rows = make([]memoRow, n) // stamps 0: no bound generation
	}
	count := sampleCount(q.SampleFraction, n)
	minRes, haveMin := e.memoMin(count)
	e.tasks = e.tasks[:0]
	if !haveMin {
		for _, s := range e.smallestOutDegreeSources(count) {
			e.tasks = append(e.tasks, sweepTask{src: s})
		}
	}
	km := len(e.tasks)
	var avgSrc []int
	if !q.MinOnly {
		avgSrc = e.uniformSources(count, q.AvgSeed)
	}
	for _, s := range avgSrc {
		if e.rows[s].gen != e.gen {
			e.tasks = append(e.tasks, sweepTask{src: s, exact: true})
		}
	}
	if len(e.tasks) > 0 {
		e.runSweep(e.tasks)
	}
	if !haveMin {
		minRes = e.combine(e.results[:km], km)
		if minRes.Pairs > 0 {
			minRes.Avg = math.NaN()
			minRes.MinPair = [2]int{-1, -1}
		}
		e.mins = append(e.mins, minMemo{count: count, res: minRes})
	}
	for i, t := range e.tasks[km:] {
		e.rows[t.src] = memoRow{gen: e.gen, res: e.results[km+i]}
	}
	// The sweep's results are all memoized now, so e.results can gather
	// the Avg rows in source order.
	rows := e.results[:0]
	for _, s := range avgSrc {
		rows = append(rows, e.rows[s].res)
	}
	e.results = rows
	return SnapshotResult{Min: minRes, Avg: e.combine(rows, len(avgSrc))}
}

// memoMin returns the memoized Min result for count sources of the
// current generation, if one was computed.
func (e *Engine) memoMin(count int) (Result, bool) {
	for _, m := range e.mins {
		if m.count == count {
			return m.res, true
		}
	}
	return Result{}, false
}

// runSweep evaluates every task across the worker pool, filling
// e.results (index-aligned with tasks). Capped tasks share one running
// minimum, seeded with the lossless out-degree bound: every evaluated
// pair of a source s satisfies kappa(s, t) <= outdeg(s), so the smallest
// out-degree among sources with at least one non-adjacent target already
// bounds the sweep minimum and prunes the discovery phase for free.
func (e *Engine) runSweep(tasks []sweepTask) {
	if cap(e.results) < len(tasks) {
		e.results = make([]taskResult, len(tasks))
	} else {
		e.results = e.results[:len(tasks)]
	}
	st := &e.state
	st.next = 0
	st.running = e.nact
	capped := false
	for _, t := range tasks {
		if t.exact {
			continue
		}
		capped = true
		if d := e.g.OutDegree(e.vtx(t.src)); d < e.nact-1 && d < st.running {
			st.running = d
		}
	}
	workers := e.maxWorkers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	// Resolve every solver the sweep may touch while still serial: a
	// stale solver's Reset reads the shared Even edge list (possibly
	// rebuilding it after a RebindSlots), which must not race across
	// workers. In the steady state — solvers bound or patched to the current
	// generation — these calls are gen checks and nothing more.
	for w := 0; w < workers; w++ {
		e.solverFor(w)
	}
	if capped {
		e.ensureAdjacency()
	}
	if workers <= 1 {
		e.sweepWorker(0, tasks, st)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.sweepWorker(w, tasks, st)
		}(w)
	}
	wg.Wait()
}

// sweepState is the cross-worker sweep coordination: a task cursor and
// the shared running minimum for capped tasks.
type sweepState struct {
	mu      sync.Mutex
	next    int
	running int
}

// sweepWorker drains tasks, writing results[idx] for each claimed task
// (distinct indices, so no result locking is needed). Sources, targets
// and recorded pairs are dense ranks; only the solver coordinates,
// adjacency probes and the fan closure translate through vtx to the bound
// graph's numbering, so a masked sweep records exactly what a dense sweep
// of the compacted graph would.
//
// A capped task asks the solver only about the sinks its fan closure
// cannot vouch for. The lemma (Menger's theorem in its fan form, the
// expansion lemma): let A hold s, its out-neighbours, and vertices a with
// kappa(s, a) >= L. A vertex t outside A with L in-neighbours in A has
// kappa(s, t) >= L. Proof: a vertex set C, |C| < L, avoiding s and t
// misses one of those in-neighbours, a. s still reaches a in G-C — a is
// s, or the edge s->a survives, or kappa(s, a) >= L > |C| — and the edge
// a->t survives, so C does not separate s from t. MaxFlowLimit returns
// exactly min(limit, kappa), so for a member the sweep records the limit
// itself, bit for bit what the call would have returned. The closure's
// threshold follows the task's limit down (members stay valid at a
// smaller threshold), and a sink whose flow reaches the limit joins it and
// may vouch for later ones.
func (e *Engine) sweepWorker(w int, tasks []sweepTask, st *sweepState) {
	n := e.nact
	g := e.g
	fan := &e.workers[w].fan
	flows, exact, settled := 0, 0, 0
	for {
		st.mu.Lock()
		idx := st.next
		if idx >= len(tasks) {
			st.mu.Unlock()
			break
		}
		st.next++
		limit := st.running
		st.mu.Unlock()

		task := tasks[idx]
		src := task.src
		srcV := e.vtx(src)
		res := taskResult{
			min: n, minPair: [2]int{-1, -1},
			exactMin: n, exactMinTgt: n,
			cappedMin: n, cappedMinTgt: n,
		}
		solver := e.solverFor(w)
		// An exact task roots the solver at its source up front; a capped
		// one at its first flow, which most never reach.
		rooted := task.exact
		if task.exact {
			solver.PrepareSource(graph.Out(srcV))
		} else {
			fan.reset(e.succStart, e.succ, srcV, limit)
		}
		for tgt := 0; tgt < n; tgt++ {
			tgtV := e.vtx(tgt)
			if tgtV == srcV || g.HasEdge(srcV, tgtV) {
				continue
			}
			var flow int
			if task.exact {
				flow = solver.MaxFlow(graph.Out(srcV), graph.In(tgtV))
				flows++
				exact++
				if flow < res.exactMin {
					res.exactMin, res.exactMinTgt = flow, tgt
				}
			} else {
				if fan.has(tgtV) {
					flow = limit
					settled++
				} else {
					if !rooted {
						solver.PrepareSource(graph.Out(srcV))
						rooted = true
					}
					flow = solver.MaxFlowLimit(graph.Out(srcV), graph.In(tgtV), limit)
					flows++
					if flow >= limit {
						fan.add(tgtV)
					}
				}
				if flow < limit {
					// The cap did not bind: the value is exact.
					if flow < res.exactMin {
						res.exactMin, res.exactMinTgt = flow, tgt
					}
				} else if flow < res.cappedMin {
					// Capped: only kappa >= flow is known. Targets scan in
					// ascending order, so a strict < keeps the smallest
					// target of the smallest capped value.
					res.cappedMin, res.cappedMinTgt = flow, tgt
				}
			}
			res.pairs++
			res.sum += int64(flow)
			if flow < res.min {
				res.min = flow
				res.minPair = [2]int{src, tgt}
				if !task.exact && flow < limit {
					limit = flow
					st.mu.Lock()
					if flow < st.running {
						st.running = flow
					} else {
						limit = st.running
					}
					st.mu.Unlock()
					fan.lower(limit)
				}
			}
		}
		e.results[idx] = res
	}
	e.workers[w].flows += flows
	e.workers[w].exact += exact
	e.workers[w].settled += settled
}

// combine folds task results into a Result, including the
// sample-yielded-no-information fallback.
func (e *Engine) combine(results []taskResult, sources int) Result {
	n := e.nact
	out := Result{N: n, Min: n, MinPair: [2]int{-1, -1}, Sources: sources}
	var sum int64
	for i := range results {
		r := &results[i]
		out.Pairs += r.pairs
		sum += r.sum
		if r.pairs == 0 {
			continue
		}
		if r.min < out.Min || (r.min == out.Min && lexLess(r.minPair, out.MinPair)) {
			out.Min = r.min
			out.MinPair = r.minPair
		}
	}
	if out.Pairs == 0 {
		// Every sampled source was adjacent to every other vertex, so the
		// sample yields no information. Report the definitional upper
		// bound n-1 rather than claiming the graph is complete.
		return Result{N: n, Min: n - 1, Avg: math.NaN(), MinPair: [2]int{-1, -1}, Sources: sources}
	}
	out.Avg = float64(sum) / float64(out.Pairs)
	return out
}

// resolveMinPair returns the lexicographically smallest evaluated
// (source, target) pair achieving min after a pruned sweep — the
// deterministic MinPair contract under any worker count. Most of the
// answer falls out of the sweep itself: any pair whose connectivity is
// min was evaluated with a cap >= min (the running minimum never drops
// below it), so it was recorded either exactly (cap did not bind) or as
// a capped candidate with value exactly min. Only the capped candidates
// are ambiguous — kappa could exceed min under the cap — and only those
// before the source's first exact hit matter, so the fallback re-checks
// just that window with cap min+1 — and of that window only the sinks the
// source's fan closure at threshold min+1 cannot vouch for: a member has
// kappa >= min+1 and so cannot be the pair. This replaces the bounded
// second sweep (lexMinPair) the previous revision ran over every source.
func (e *Engine) resolveMinPair(tasks []sweepTask, results []taskResult, min int) [2]int {
	n := e.nact
	idxs := e.idxBuf[:0]
	for i := range tasks {
		if !tasks[i].exact {
			idxs = append(idxs, i)
		}
	}
	slices.SortFunc(idxs, func(a, b int) int { return tasks[a].src - tasks[b].src })
	e.idxBuf = idxs
	var solver maxflow.Solver
	ew := &e.workers[0]
	for _, ti := range idxs {
		r := &results[ti]
		src := tasks[ti].src
		srcV := e.vtx(src)
		exTgt := n
		if r.exactMin == min {
			exTgt = r.exactMinTgt
		}
		amTgt := n
		if r.cappedMin == min {
			amTgt = r.cappedMinTgt
		}
		if amTgt < exTgt {
			if solver == nil {
				solver = e.solverFor(0)
				e.ensureAdjacency()
			}
			ew.fan.reset(e.succStart, e.succ, srcV, min+1)
			rooted := false
			for tgt := amTgt; tgt < exTgt; tgt++ {
				tgtV := e.vtx(tgt)
				if tgtV == srcV || e.g.HasEdge(srcV, tgtV) {
					continue
				}
				if ew.fan.has(tgtV) {
					ew.settled++
					continue
				}
				if !rooted {
					solver.PrepareSource(graph.Out(srcV))
					rooted = true
				}
				ew.flows++
				if solver.MaxFlowLimit(graph.Out(srcV), graph.In(tgtV), min+1) == min {
					return [2]int{src, tgt}
				}
				ew.fan.add(tgtV)
			}
		}
		if exTgt < n {
			return [2]int{src, exTgt}
		}
	}
	return [2]int{-1, -1}
}

// sampleCount returns ceil(c*n) clamped to [1, n], or n for a full
// sweep.
func sampleCount(c float64, n int) int {
	if c <= 0 || c >= 1 {
		return n
	}
	count := int(math.Ceil(c * float64(n)))
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	return count
}

// pickSources returns the flow sources (dense ranks) for one Analyze
// query, reusing the engine's scratch buffers: every vertex in rank order
// for a full sweep, else the c*n with smallest out-degree.
func (e *Engine) pickSources(c float64) []int {
	n := e.nact
	if c <= 0 || c >= 1 {
		if cap(e.allBuf) < n {
			e.allBuf = make([]int, n)
		}
		all := e.allBuf[:n]
		for i := range all {
			all[i] = i
		}
		return all
	}
	return e.smallestOutDegreeSources(sampleCount(c, n))
}

// smallestOutDegreeSources returns the count active vertices (as dense
// ranks) with smallest out-degree, ties broken by rank — the paper's
// §5.2 heuristic. A counting sort by degree (stable in rank order)
// reproduces the historical sort.SliceStable order with zero
// allocations.
func (e *Engine) smallestOutDegreeSources(count int) []int {
	n := e.nact
	if cap(e.degCount) < n {
		e.degCount = make([]int32, n)
	}
	cnt := e.degCount[:n] // out-degrees lie in [0, n-1]
	for i := range cnt {
		cnt[i] = 0
	}
	for v := 0; v < n; v++ {
		cnt[e.g.OutDegree(e.vtx(v))]++
	}
	var total int32
	for d := 0; d < n; d++ {
		c := cnt[d]
		cnt[d] = total
		total += c
	}
	if cap(e.orderBuf) < n {
		e.orderBuf = make([]int, n)
	}
	order := e.orderBuf[:n]
	for v := 0; v < n; v++ {
		d := e.g.OutDegree(e.vtx(v))
		order[cnt[d]] = v
		cnt[d]++
	}
	return order[:count]
}

// uniformSources returns count seeded uniform sources (dense ranks),
// replicating rand.Rand.Perm exactly (including the i=0 draw) so seeded
// runs keep their historical source sets.
func (e *Engine) uniformSources(count int, seed int64) []int {
	n := e.nact
	e.rng.Seed(seed)
	if cap(e.permBuf) < n {
		e.permBuf = make([]int, n)
	}
	m := e.permBuf[:n]
	for i := 0; i < n; i++ {
		j := e.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m[:count]
}

// PairCut returns a minimum vertex cut separating w from v on the bound
// graph: a smallest set of vertices (excluding v and w themselves) whose
// removal destroys every path from v to w. Its size equals kappa(v, w).
// This extends the paper's analysis from *how many* nodes an attacker must
// compromise (Equation 2) to *which* nodes realize that minimum — the
// optimal attack against the pair. Under a masked binding v and w are
// dense ranks and so is the returned cut.
//
// The cut is read off the max-flow residual graph of the Even-transformed
// graph: with a maximum flow in place, a vertex u is in the cut exactly
// when its internal edge (u', u”) crosses from the residual-reachable
// side to the unreachable side. Unlike the kappa computation — where every
// capacity is 1, as in the paper — the rewired original edges here carry
// capacity n so that the minimum cut is forced onto internal edges only;
// the flow value is unaffected because vertex-disjoint paths never share
// an original edge.
//
// The cut-mode flow network is cached: the first call builds it, later
// calls — and later bindings — reinitialize it in place, so an
// adversary striking once per snapshot stops paying a network
// construction per strike.
func (e *Engine) PairCut(v, w int) ([]int, error) {
	if e.g == nil {
		panic("connectivity: Engine.PairCut before Bind")
	}
	if v == w {
		return nil, fmt.Errorf("connectivity: cut (%d,%d) has identical endpoints", v, w)
	}
	if v < 0 || v >= e.nact || w < 0 || w >= e.nact {
		return nil, fmt.Errorf("connectivity: cut (%d,%d) out of range [0,%d)", v, w, e.nact)
	}
	if e.g.HasEdge(e.vtx(v), e.vtx(w)) {
		return nil, fmt.Errorf("connectivity: vertices %d and %d are adjacent; no vertex cut separates them", v, w)
	}
	if e.cutSolver == nil {
		e.ensureCut()
		e.cutSolver = maxflow.NewDinicSource(2*e.nact, &e.cutSrc)
		e.cutGen = e.gen
		e.cutBuilds++
	} else if e.cutGen != e.gen {
		e.ensureCut()
		e.cutSolver.Reset(2*e.nact, &e.cutSrc)
		e.cutGen = e.gen
	}
	e.cutSolver.MaxFlow(graph.Out(v), graph.In(w))
	reach := e.cutSolver.ResidualReachable(graph.Out(v))
	return extractCut(e.nact, v, w, reach), nil
}

// GraphCut returns a minimum vertex cut of the bound graph, with the
// semantics of the package-level GraphCut: a pruned Min/MinPair analysis
// followed by a PairCut at the minimizing pair.
func (e *Engine) GraphCut(q Query) (cut []int, pair [2]int, ok bool, err error) {
	q.MinOnly = true
	res := e.Analyze(q)
	if res.Complete || res.MinPair[0] < 0 {
		return nil, [2]int{}, false, nil
	}
	cut, err = e.PairCut(res.MinPair[0], res.MinPair[1])
	if err != nil {
		return nil, [2]int{}, false, err
	}
	return cut, res.MinPair, true, nil
}
