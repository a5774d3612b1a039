package maxflow

import "fmt"

// DinicSolver implements Dinic's blocking-flow algorithm. On unit-capacity
// graphs — which is all the connectivity pipeline ever produces, since
// Even's transformation keeps every capacity at 1 — it runs in
// O(E*sqrt(V)), asymptotically better than push-relabel's bound. Its
// MaxFlowLimit stops exactly at the cap (the flow counter rises one
// augmenting path at a time), and its residual-reachability query reads
// the source-minimal minimum cut off a maximum flow. It is the tests'
// reference for the connectivity engine's flows and cuts, and a
// benchmark control; the engine itself needs no flow network.
//
// Two sweep-oriented optimizations apply on top of the textbook
// algorithm. Queries restore only the residual capacities they actually
// changed (the arcs of their augmenting paths) instead of rewriting the
// whole capacity array. And PrepareSource caches the first-phase BFS
// level graph of a fixed source: on a fresh residual that BFS is
// independent of the target, so a sweep evaluating one source against
// hundreds of targets pays for it once.
type DinicSolver struct {
	st    arcStore
	level []int32
	iter  []int32
	queue []int32
	// stack for iterative DFS: the arc taken into each path vertex.
	pathArc []int32
	// preparedSrc/srcLevel cache the fresh-residual BFS levels from one
	// source (see PrepareSource); preparedSrc is -1 when invalid.
	preparedSrc int32
	srcLevel    []int32
}

var _ Solver = (*DinicSolver)(nil)

// NewDinic builds a Dinic solver for the given graph.
func NewDinic(n int, edges []Edge) *DinicSolver {
	return NewDinicSource(n, EdgeSlice(edges))
}

// NewDinicSource builds a Dinic solver from an EdgeSource.
func NewDinicSource(n int, edges EdgeSource) *DinicSolver {
	d := &DinicSolver{}
	d.Reset(n, edges)
	return d
}

// Reset implements Solver: it re-binds the solver to a new graph in
// place, reusing internal arrays whose capacity suffices.
func (d *DinicSolver) Reset(n int, edges EdgeSource) {
	d.st.init(n, edges)
	d.level = growInt32(d.level, n)
	d.iter = growInt32(d.iter, n)
	d.srcLevel = growInt32(d.srcLevel, n)
	if cap(d.queue) < n {
		d.queue = make([]int32, 0, n)
	}
	d.preparedSrc = -1
}

// N implements Solver.
func (d *DinicSolver) N() int { return d.st.n }

// PrepareSource implements Solver: it runs one full BFS from s on the
// fresh residual graph and caches the level array. Subsequent
// MaxFlow/MaxFlowLimit queries from s skip their first-phase BFS — on a
// fresh residual the level graph from s is the same for every target.
func (d *DinicSolver) PrepareSource(s int) {
	if s < 0 || s >= d.st.n {
		panic(fmt.Sprintf("maxflow: vertex %d out of range [0,%d)", s, d.st.n))
	}
	d.st.resetTouched()
	lv := d.srcLevel
	for i := range lv {
		lv[i] = -1
	}
	lv[s] = 0
	d.queue = d.queue[:0]
	d.queue = append(d.queue, int32(s))
	for head := 0; head < len(d.queue); head++ {
		u := d.queue[head]
		for a := d.st.first[u]; a < d.st.first[u+1]; a++ {
			v := d.st.to[a]
			if d.st.cap[a] > 0 && lv[v] < 0 {
				lv[v] = lv[u] + 1
				d.queue = append(d.queue, v)
			}
		}
	}
	d.preparedSrc = int32(s)
}

// ResidualReachable returns, for the state left by the most recent
// MaxFlow/MaxFlowLimit call, which vertices are reachable from s in the
// residual graph. With a maximum flow in place, the arcs crossing from the
// reachable set to its complement form a minimum cut (max-flow/min-cut
// theorem). The result is only meaningful after an un-limited MaxFlow.
func (d *DinicSolver) ResidualReachable(s int) []bool {
	if s < 0 || s >= d.st.n {
		panic(fmt.Sprintf("maxflow: vertex %d out of range [0,%d)", s, d.st.n))
	}
	seen := make([]bool, d.st.n)
	seen[s] = true
	d.queue = d.queue[:0]
	d.queue = append(d.queue, int32(s))
	for head := 0; head < len(d.queue); head++ {
		u := d.queue[head]
		for a := d.st.first[u]; a < d.st.first[u+1]; a++ {
			v := d.st.to[a]
			if d.st.cap[a] > 0 && !seen[v] {
				seen[v] = true
				d.queue = append(d.queue, v)
			}
		}
	}
	return seen
}

// MaxFlow implements Solver.
func (d *DinicSolver) MaxFlow(s, t int) int {
	return d.MaxFlowLimit(s, t, int(^uint(0)>>1))
}

// MaxFlowLimit implements Solver.
func (d *DinicSolver) MaxFlowLimit(s, t, limit int) int {
	if s < 0 || s >= d.st.n || t < 0 || t >= d.st.n {
		panic(fmt.Sprintf("maxflow: query (%d,%d) out of range [0,%d)", s, t, d.st.n))
	}
	if s == t {
		panic("maxflow: source equals target")
	}
	d.st.resetTouched()
	ss, tt := int32(s), int32(t)
	prepared := ss == d.preparedSrc
	flow := 0
	for flow < limit {
		if prepared {
			prepared = false
			lt := d.srcLevel[tt]
			if lt < 0 {
				break
			}
			// Copy the cached levels, pruning every vertex at t's level or
			// beyond: an admissible path reaches t exactly at level lt, so
			// those vertices are dead ends the DFS would otherwise explore.
			for i, lv := range d.srcLevel {
				if lv >= lt && int32(i) != tt {
					lv = -1
				}
				d.level[i] = lv
			}
		} else if !d.bfs(ss, tt) {
			break
		}
		copy(d.iter, d.st.first[:d.st.n])
		for flow < limit {
			pushed := d.dfs(ss, tt)
			if pushed == 0 {
				break
			}
			flow += pushed
		}
	}
	return flow
}

// bfs builds level graph; reports whether t is reachable.
func (d *DinicSolver) bfs(s, t int32) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.level[s] = 0
	d.queue = d.queue[:0]
	d.queue = append(d.queue, s)
	for head := 0; head < len(d.queue); head++ {
		u := d.queue[head]
		for a := d.st.first[u]; a < d.st.first[u+1]; a++ {
			v := d.st.to[a]
			if d.st.cap[a] > 0 && d.level[v] < 0 {
				d.level[v] = d.level[u] + 1
				if v == t {
					return true
				}
				d.queue = append(d.queue, v)
			}
		}
	}
	return d.level[t] >= 0
}

// dfs finds one augmenting path in the level graph and pushes one unit of
// flow along it (the bottleneck on unit-capacity graphs is always 1, but
// the code handles general capacities by tracking the bottleneck).
func (d *DinicSolver) dfs(s, t int32) int {
	d.pathArc = d.pathArc[:0]
	u := s
	for {
		if u == t {
			// Found a path; compute bottleneck and apply.
			bottleneck := int32(1<<31 - 1)
			for _, a := range d.pathArc {
				if d.st.cap[a] < bottleneck {
					bottleneck = d.st.cap[a]
				}
			}
			for _, a := range d.pathArc {
				d.st.touch(a)
				d.st.cap[a] -= bottleneck
				d.st.cap[d.st.rev[a]] += bottleneck
			}
			return int(bottleneck)
		}
		advanced := false
		for d.iter[u] < d.st.first[u+1] {
			a := d.iter[u]
			v := d.st.to[a]
			if d.st.cap[a] > 0 && d.level[v] == d.level[u]+1 {
				d.pathArc = append(d.pathArc, a)
				u = v
				advanced = true
				break
			}
			d.iter[u]++
		}
		if advanced {
			continue
		}
		// Dead end: prune u from the level graph and backtrack.
		d.level[u] = -1
		if u == s {
			return 0
		}
		last := d.pathArc[len(d.pathArc)-1]
		d.pathArc = d.pathArc[:len(d.pathArc)-1]
		u = d.st.to[d.st.rev[last]]
		d.iter[u]++
	}
}
