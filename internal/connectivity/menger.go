package connectivity

import (
	"math/bits"

	"kadre/internal/graph"
)

// pathSolver is the engine's one flow solver. It computes pair
// connectivities kappa(s, t) of one source against a sequence of sinks by
// finding vertex-disjoint s->t paths directly on a Digraph's bitset rows
// (Menger's theorem, with the augmenting-path search of Even 1975) —
// exactly, or capped at a limit for the Min sweeps — and reads minimum
// vertex cuts off a maximum flow (see cut). It needs no Even edge list
// and no arc store: the flow is a set of vertex-disjoint paths kept as
// pred/succ links per vertex, and the residual of the vertex-split
// network is read off those links. An augmentation may also close a cycle
// of links — flow that circulates, adds nothing to the value and is a
// valid part of the residual; the next retarget drops it.
//
// Each sink starts warm from the previous sink's paths (see retarget),
// adds the 2- and 3-hop paths a greedy bitset fill finds, and augments
// until the flow reaches min(outdeg s, indeg t, limit) or a breadth-first
// search fails to find an augmenting path — the only search whose failure
// proves the value. The search has a one-layer sink side: it ends as
// soon as it queues an out-half with an edge to a free in-neighbour of t,
// which it reads off the in-neighbour rows of those free in-neighbours
// (see search), rather than one layer later when that in-neighbour's own
// out-half is queued. The answer is min(limit, kappa) exactly, so it is
// the value any maximum-flow solver's limited query returns on the Even
// transform, whatever order the sinks come in. The order sets the work:
// retarget keeps a path only up to its first in-neighbour of the new
// sink, so a sink whose in-neighbours resemble the previous sink's
// inherits most of its paths. The engine therefore scans an exact task's
// sinks along similarityChain.
//
// A vacant slot of a stable-slot graph is isolated, so it is never on a
// path and the solver runs on slot graphs unchanged.
type pathSolver struct {
	g *graph.Digraph
	// in holds g's in-neighbour rows (see transposeRows), words wide.
	in    []uint64
	words int

	s, t int      // source, and current sink (-1 before the first one)
	tin  []uint64 // the sink's in-neighbours: row t of in
	flow int      // paths from s to t
	outS int      // out-degree of s: the flow's upper bound on the source side

	// pred[v]/succ[v] are v's neighbours on its path, -1 if v is on none.
	// Only internal vertices carry links: the source's first hops have
	// pred s and the sink's last hops succ t, but pred/succ of s and t
	// stay -1. used has bit v set iff pred[v] >= 0.
	pred, succ []int32
	used       []uint64

	// Search scratch: the visited in- and out-halves of each split vertex,
	// and how each visited in-half was entered — from[v] = u for the edge
	// u->v, from[v] = v for the step back from v's own out-half.
	visIn, visOut []uint64
	from          []int32
	queue         []int32
	// near is the search's sink side: the vertices with an edge to a free
	// in-neighbour of t.
	near []uint64
	// Augmentation scratch: the path edges that lose and gain flow.
	drop, add []pathEdge
	// retarget's scratch: the kept path prefixes, each ended by -1.
	kept []int32

	// augments counts breadth-first searches, failing ones included, and
	// visits the out-halves they queued, the source's included.
	augments, visits int
	// afterStep, when set, runs after every retarget, fill and
	// augmentation (augmented true); the tests hang the invariant check
	// on it.
	afterStep func(augmented bool)
}

// pathEdge is one edge (u, v) of the flow.
type pathEdge struct{ u, v int32 }

// bind points the solver at g and at in, g's in-neighbour rows as
// transposeRows builds them. It allocates only when the vertex count
// outgrows every earlier binding; a source must be set before the first
// kappa.
func (p *pathSolver) bind(g *graph.Digraph, in []uint64) {
	n, words := g.N(), (g.N()+63)>>6
	p.g, p.in, p.words = g, in, words
	if cap(p.pred) < n {
		p.pred = make([]int32, n)
		p.succ = make([]int32, n)
		p.from = make([]int32, n)
		p.queue = make([]int32, 0, n)
		p.kept = make([]int32, 0, 2*n)
	}
	p.pred, p.succ, p.from = p.pred[:n], p.succ[:n], p.from[:n]
	if cap(p.used) < words {
		p.used = make([]uint64, words)
		p.visIn = make([]uint64, words)
		p.visOut = make([]uint64, words)
		p.near = make([]uint64, words)
	}
	p.used, p.visIn, p.visOut, p.near = p.used[:words], p.visIn[:words], p.visOut[:words], p.near[:words]
}

// source starts a new source s with an empty flow.
func (p *pathSolver) source(s int) {
	p.s, p.t, p.flow = s, -1, 0
	p.outS = p.g.OutDegree(s)
	for i := range p.pred {
		p.pred[i], p.succ[i] = -1, -1
	}
	clear(p.used)
}

func hasBit(set []uint64, v int) bool { return set[v>>6]&(1<<(v&63)) != 0 }
func setBit(set []uint64, v int)      { set[v>>6] |= 1 << (v & 63) }

// kappa returns min(kappa(s, t), limit) for the current source and a
// sink t that is neither s nor one of its out-neighbours. It augments
// only until the flow reaches the limit, so a capped query costs at most
// limit paths; pass math.MaxInt for the exact value. The flow it leaves
// may exceed the limit (the warm start and the fill add paths freely),
// which only helps the next sink.
func (p *pathSolver) kappa(t, limit int) int {
	tin := p.in[t*p.words : (t+1)*p.words]
	p.retarget(t, tin)
	p.step(false)
	p.fill()
	p.step(false)
	ub := min(p.outS, limit)
	in := 0
	for _, w := range tin {
		in += bits.OnesCount64(w)
	}
	if in < ub {
		ub = in
	}
	for p.flow < ub {
		last := p.search()
		if last < 0 {
			break
		}
		p.augment(last)
		p.step(true)
	}
	return min(p.flow, limit)
}

// step runs the test hook, if one is set.
func (p *pathSolver) step(augmented bool) {
	if p.afterStep != nil {
		p.afterStep(augmented)
	}
}

// retarget turns the flow to the old sink into a flow to the new sink t.
// Each path is cut after its first vertex that is t's in-neighbour, or
// just before t itself; a path that meets neither is dropped, except
// that one path may keep the old sink as its last vertex if the old sink
// is t's in-neighbour. The kept prefixes are rebuilt from scratch, so
// the flow is a set of disjoint paths and nothing else.
func (p *pathSolver) retarget(t int, tin []uint64) {
	old := p.t
	p.t, p.tin = t, tin
	if p.flow == 0 {
		return
	}
	s := int32(p.s)
	kept := p.kept[:0]
	extended := false
	for i, w := range p.g.Row(p.s) {
		for w &= p.used[i]; w != 0; w &= w - 1 {
			x := int32(i<<6 | bits.TrailingZeros64(w))
			if p.pred[x] != s {
				continue
			}
			start := len(kept)
			for int(x) != t {
				kept = append(kept, x)
				if hasBit(tin, int(x)) {
					break
				}
				if x = p.succ[x]; int(x) == old {
					if !extended && hasBit(tin, old) {
						extended = true
						kept = append(kept, x)
					} else {
						kept = kept[:start]
					}
					break
				}
			}
			if len(kept) > start {
				kept = append(kept, -1)
			}
		}
	}
	p.kept = kept
	for i, w := range p.used {
		for ; w != 0; w &= w - 1 {
			v := i<<6 | bits.TrailingZeros64(w)
			p.pred[v], p.succ[v] = -1, -1
		}
		p.used[i] = 0
	}
	p.flow = 0
	prev := s
	for _, v := range kept {
		if v < 0 { // prev ends a path
			p.succ[prev] = int32(t)
			p.flow++
			prev = s
			continue
		}
		p.pred[v] = prev
		if prev != s {
			p.succ[prev] = v
		}
		setBit(p.used, int(v))
		prev = v
	}
}

// fill adds the free 2-hop paths s->v->t, then greedily the free 3-hop
// paths s->a->b->t, b the smallest candidate for each a.
func (p *pathSolver) fill() {
	s, t := int32(p.s), int32(p.t)
	out, tin := p.g.Row(p.s), p.tin
	for i := range out {
		for w := out[i] & tin[i] &^ p.used[i]; w != 0; w &= w - 1 {
			v := i<<6 | bits.TrailingZeros64(w)
			p.pred[v], p.succ[v] = s, t
			setBit(p.used, v)
			p.flow++
		}
	}
	for i := range out {
		for w := out[i] &^ p.used[i]; w != 0; w &= w - 1 {
			a := i<<6 | bits.TrailingZeros64(w)
			if hasBit(p.used, a) { // taken as an earlier path's b
				continue
			}
			for j, r := range p.g.Row(a) {
				if c := r & tin[j] &^ p.used[j]; c != 0 {
					b := j<<6 | bits.TrailingZeros64(c)
					p.pred[a], p.succ[a] = s, int32(b)
					p.pred[b], p.succ[b] = int32(a), t
					setBit(p.used, a)
					setBit(p.used, b)
					p.flow++
					break
				}
			}
		}
	}
}

// search runs one breadth-first search for an augmenting path in the
// residual of the vertex-split network and returns the vertex whose
// out-half steps to t, or -1 if t is unreachable. The moves:
//   - a free vertex is entered at its in-half and left at its out-half;
//   - a used vertex entered at its in-half must step back to its pred's
//     out-half (cancelling the pred->v edge);
//   - a used vertex reached at its out-half (stepping back from its
//     succ) may go forward along any other edge, or back through its own
//     in-half to its pred.
//
// The queue holds out-halves only; in-halves are passed through. Each
// frontier step is one word-wise row &^ visited scan. The sink side is
// one layer deep: near, the OR of the in-neighbour rows of t's free
// in-neighbours, marks every out-half one free vertex away from t, and
// push ends the search at such an out-half (see push).
func (p *pathSolver) search() int {
	p.augments++
	clear(p.visIn)
	clear(p.visOut)
	clear(p.near)
	s, t := p.s, p.t
	for i, w := range p.tin {
		for w &^= p.used[i]; w != 0; w &= w - 1 {
			v := i<<6 | bits.TrailingZeros64(w)
			for j, r := range p.in[v*p.words : (v+1)*p.words] {
				p.near[j] |= r
			}
		}
	}
	// Neither s's in-half nor t's is ever entered as a vertex: s is the
	// root, and every out-half is tested for an edge to t as it is queued.
	setBit(p.visIn, s)
	setBit(p.visIn, t)
	p.queue = p.queue[:0]
	if last := p.push(s); last >= 0 {
		return last
	}
	for head := 0; head < len(p.queue); head++ {
		u := int(p.queue[head])
		if u != s && hasBit(p.used, u) && !hasBit(p.visIn, u) {
			setBit(p.visIn, u)
			p.from[u] = int32(u)
			if x := int(p.pred[u]); x != s && !hasBit(p.visOut, x) {
				if last := p.push(x); last >= 0 {
					return last
				}
			}
		}
		for i, w := range p.g.Row(u) {
			for w &^= p.visIn[i]; w != 0; w &= w - 1 {
				v := i<<6 | bits.TrailingZeros64(w)
				if int(p.pred[v]) == u { // the flow edge u->v has no residual
					continue
				}
				p.visIn[i] |= 1 << (v & 63)
				p.from[v] = int32(u)
				x := v
				if p.used[i]&(1<<(v&63)) != 0 {
					if x = int(p.pred[v]); x == s || hasBit(p.visOut, x) {
						continue
					}
				}
				if last := p.push(x); last >= 0 {
					return last
				}
			}
		}
	}
	return -1
}

// push queues x's out-half and returns the last vertex of an augmenting
// path through it, or -1 if x is not within one free vertex of the sink:
// x itself if x steps to t along an edge that carries no flow yet, else
// a free in-neighbour v of t that x has an edge to (x is in near), with
// from[v] = x. The edge x->v carries no flow and v's in-half is still
// unvisited, because v is free: entering a free in-neighbour of t
// queues its out-half, which ends the search. Testing on entry rather
// than on leaving the queue ends a search as soon as the sink is in
// reach.
func (p *pathSolver) push(x int) int {
	setBit(p.visOut, x)
	p.queue = append(p.queue, int32(x))
	p.visits++
	if hasBit(p.tin, x) && int(p.succ[x]) != p.t {
		return x
	}
	if !hasBit(p.near, x) {
		return -1
	}
	for i, w := range p.g.Row(x) {
		if c := w & p.tin[i] &^ p.used[i]; c != 0 {
			v := i<<6 | bits.TrailingZeros64(c)
			p.from[v] = int32(x)
			return v
		}
	}
	panic("connectivity: near marks a vertex with no free in-neighbour of the sink")
}

// augment flips the flow along the path search found, last being the
// vertex whose out-half stepped to t. It walks the search tree back from
// t, collecting the edges that gain flow (forward steps) and lose it
// (backward steps), then applies the losses before the gains.
func (p *pathSolver) augment(last int) {
	s := p.s
	drop, add := p.drop[:0], append(p.add[:0], pathEdge{int32(last), int32(p.t)})
	u := last // at u's out-half
	for u != s {
		x := u // the in-half u's out-half was reached from
		if hasBit(p.used, u) {
			x = int(p.succ[u])
			drop = append(drop, pathEdge{int32(u), int32(x)})
		}
		// At x's in-half.
		if f := int(p.from[x]); f == x {
			u = x // stepped back from x's own out-half
		} else {
			add = append(add, pathEdge{int32(f), int32(x)})
			u = f
		}
	}
	// used tracks pred >= 0, and only these loops move a pred.
	for _, e := range drop { // the walk never drops an edge out of s
		p.succ[e.u] = -1
		p.pred[e.v] = -1
		p.used[e.v>>6] &^= 1 << (e.v & 63)
	}
	for _, e := range add {
		if int(e.u) != s {
			p.succ[e.u] = e.v
		}
		if int(e.v) != p.t {
			p.pred[e.v] = e.u
			setBit(p.used, int(e.v))
		}
	}
	p.drop, p.add = drop, add
	p.flow++
}

// cut returns, in ascending order, the vertices of the source-minimal
// minimum vertex cut between s and t; the flow must be a maximum one (an
// unlimited kappa). It is one residual search of the
// vertex-split network in which, unlike search's unit network, original
// edges have unbounded capacity, so that every minimum cut consists of
// internal edges only — a unit-capacity minimum cut may contain original
// edges instead. The moves therefore differ from search's in one place:
// an original edge u->v is always open forward, even while a path runs
// along it; backward it is open only where a path runs. An internal edge
// is open forward on a free vertex and backward on a used one. The cut
// is every vertex whose in-half the search enters and whose out-half it
// does not reach. The source side of the source-minimal minimum cut is
// the same for every maximum flow, so the answer does not depend on
// which paths the solver found.
func (p *pathSolver) cut() []int {
	clear(p.visIn)
	clear(p.visOut)
	s, t := p.s, p.t
	// A maximum flow leaves t's in-half unreachable; marking it keeps the
	// search off it regardless.
	setBit(p.visIn, s)
	setBit(p.visIn, t)
	setBit(p.visOut, s)
	p.queue = append(p.queue[:0], int32(s))
	reach := func(x int) { // x's out-half
		if !hasBit(p.visOut, x) {
			setBit(p.visOut, x)
			p.queue = append(p.queue, int32(x))
		}
	}
	for head := 0; head < len(p.queue); head++ {
		u := int(p.queue[head])
		if u != s && hasBit(p.used, u) && !hasBit(p.visIn, u) {
			// Back through u's own internal edge, then along its pred edge.
			setBit(p.visIn, u)
			reach(int(p.pred[u]))
		}
		for i, w := range p.g.Row(u) {
			for w &^= p.visIn[i]; w != 0; w &= w - 1 {
				v := i<<6 | bits.TrailingZeros64(w)
				p.visIn[i] |= 1 << (v & 63)
				if p.used[i]&(1<<(v&63)) == 0 {
					reach(v)
				} else {
					reach(int(p.pred[v]))
				}
			}
		}
	}
	var cut []int
	for i, w := range p.visIn {
		for w &^= p.visOut[i]; w != 0; w &= w - 1 {
			if v := i<<6 | bits.TrailingZeros64(w); v != t {
				cut = append(cut, v)
			}
		}
	}
	return cut
}

// transposeRows returns g's in-neighbour rows in dst's storage: row v,
// dst[v*words:(v+1)*words] with words = (N+63)/64, has bit u set iff
// (u, v) is an edge.
func transposeRows(g *graph.Digraph, dst []uint64) []uint64 {
	n := g.N()
	words := (n + 63) >> 6
	if cap(dst) < n*words {
		dst = make([]uint64, n*words)
	}
	dst = dst[:n*words]
	clear(dst)
	for u := 0; u < n; u++ {
		bit, word := uint64(1)<<(u&63), u>>6
		for i, w := range g.Row(u) {
			for ; w != 0; w &= w - 1 {
				v := i<<6 | bits.TrailingZeros64(w)
				dst[v*words+word] |= bit
			}
		}
	}
	return dst
}

// similarityChain returns, in dst's storage, the order in which exact
// tasks scan their sinks: a greedy nearest-neighbour walk over the ranks
// 0..n-1 that starts at rank 0 and steps each time to the unvisited rank
// whose row is closest in Hamming distance, the lowest rank on a tie.
// Rank r's row is rows[v*words:(v+1)*words] with v = order[r], or v = r
// when order is nil; the engine passes its in-neighbour rows (see
// transposeRows) and slot order. In a Kademlia graph nodes with close IDs
// sit in the same peers' buckets, so neighbours on the chain share most
// in-neighbours and the path solver's warm start keeps most of its paths
// (see pathSolver). The walk reads about n*n/2 row pairs.
func similarityChain(dst []int32, rows []uint64, words, n int, order []int) []int32 {
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for r := range dst {
		dst[r] = int32(r)
	}
	row := func(r int32) []uint64 {
		v := int(r)
		if order != nil {
			v = order[r]
		}
		return rows[v*words : (v+1)*words]
	}
	// dst[:i] is the chain so far and dst[i:] the unvisited ranks, in no
	// particular order: the tie rule compares ranks, not positions.
	for i := 1; i < n; i++ {
		prev := row(dst[i-1])
		best, bestDist := i, words*64+1
		for j := i; j < n; j++ {
			dist := 0
			for k, w := range row(dst[j]) {
				dist += bits.OnesCount64(w ^ prev[k])
			}
			if dist < bestDist || dist == bestDist && dst[j] < dst[best] {
				best, bestDist = j, dist
			}
		}
		dst[i], dst[best] = dst[best], dst[i]
	}
	return dst
}
