package connectivity

// fanClosure is one worker's scratch for the fan-closure lower bound (see
// the lemma on Engine.sweepWorker): the set A of vertices t with
// kappa(s, t) >= thr that the bound can vouch for without a flow. A is
// the least fixed point of "s and its out-neighbours are members, and so
// is every vertex with at least thr in-neighbours in A" — bootstrap
// percolation, so it does not depend on the order vertices are visited in.
// The arrays are indexed by the bound graph's vertex number; a vacant slot
// is isolated and only joins at thr <= 0, where membership is vacuous.
type fanClosure struct {
	// The flat successor arrays reset was given (Engine.succStart/succ):
	// vertex u's out-neighbours are succ[start[u]:start[u+1]].
	start, succ []int32

	in    []int32 // in[v]: in-neighbours of v that are members
	good  []bool  // membership
	queue []int32 // members whose successors are still to be counted
	thr   int
}

// reset makes the closure that of source s at threshold thr over the flat
// successor arrays start/succ. It allocates only when the vertex count
// outgrows every earlier call.
func (c *fanClosure) reset(start, succ []int32, s, thr int) {
	n := len(start) - 1
	if cap(c.in) < n {
		c.in = make([]int32, n)
		c.good = make([]bool, n)
		c.queue = make([]int32, 0, n)
	}
	c.start, c.succ = start, succ
	c.in, c.good = c.in[:n], c.good[:n]
	clear(c.in)
	clear(c.good)
	// Seed at a threshold nothing reaches, so that the counts of s's
	// successors are in place before lower admits anybody on them.
	c.thr = n + 1
	c.add(s)
	for _, v := range succ[start[s]:start[s+1]] {
		if !c.good[v] {
			c.add(int(v))
		}
	}
	c.lower(thr)
}

// lower moves the threshold down to thr, admitting every vertex the
// smaller requirement lets in. Members stay members: kappa >= the old
// threshold implies kappa >= thr. A rise is not supported (it would have
// to evict; use reset).
func (c *fanClosure) lower(thr int) {
	c.thr = thr
	for v, in := range c.in {
		if int(in) >= thr && !c.good[v] {
			c.add(v)
		}
	}
}

// add makes v a member — the caller vouches for kappa(s, v) >= thr, by
// adjacency, by the lemma or by a flow — and propagates to the fixed
// point.
func (c *fanClosure) add(v int) {
	c.good[v] = true
	c.queue = append(c.queue[:0], int32(v))
	for len(c.queue) > 0 {
		a := c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		for _, t := range c.succ[c.start[a]:c.start[a+1]] {
			c.in[t]++
			if int(c.in[t]) >= c.thr && !c.good[t] {
				c.good[t] = true
				c.queue = append(c.queue, t)
			}
		}
	}
}

// has reports whether the closure vouches for kappa(s, v) >= thr.
func (c *fanClosure) has(v int) bool { return c.good[v] }
