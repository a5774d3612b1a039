package kademlia

import (
	"kadre/internal/id"
)

// Disjoint-path lookups, the resilience mechanism of S/Kademlia (Baumgart
// & Mies 2007 — the paper's reference [1] and the direction of its future
// work "to improve upon the minimum connectivity"): the lookup fans out
// over d paths that share no intermediate nodes, so an attacker
// controlling fewer than d of the traversed nodes cannot suppress the
// result. The paper's connectivity measurements are exactly what bounds
// the d worth provisioning: at most kappa(D) node-disjoint paths exist.

// DisjointResult reports the outcome of a disjoint-path lookup.
type DisjointResult struct {
	// Closest is the merged result set, ascending by distance.
	Closest []Contact
	// PathsSucceeded counts paths that contacted at least one node.
	PathsSucceeded int
	// Responded is the total number of nodes successfully contacted.
	Responded int
}

// disjointLookup coordinates d sub-lookups over a shared claim set.
type disjointLookup struct {
	node      *Node
	target    id.ID
	remaining int
	claimed   map[id.ID]bool
	paths     []*lookup
	done      func(DisjointResult)

	merged          []Contact
	resultSucceeded int
	resultResponded int
}

// DisjointLookup runs the FIND_NODE procedure over d node-disjoint paths:
// the initial candidates are split round-robin across d independent
// sub-lookups, and every discovered contact is claimed by exactly one
// path before being queried. done receives the merged result.
//
// d is clamped to [1, alpha * d] sensible bounds: at least 1; values
// above the number of initial candidates simply leave surplus paths
// empty.
func (n *Node) DisjointLookup(target id.ID, d int, done func(DisjointResult)) {
	if d < 1 {
		d = 1
	}
	if !n.running {
		if done != nil {
			done(DisjointResult{})
		}
		return
	}
	n.stats.LookupsStarted++

	dl := &disjointLookup{
		node:      n,
		target:    target,
		remaining: d,
		claimed:   map[id.ID]bool{n.self.ID: true},
		done:      done,
	}

	// Seed each path with a round-robin share of the closest known
	// contacts. Claims are taken at seeding time so seeds are disjoint.
	seeds := n.table.Closest(target, n.cfg.K)
	shares := make([][]Contact, d)
	for i, c := range seeds {
		shares[i%d] = append(shares[i%d], c)
	}

	for p := 0; p < d; p++ {
		l := n.newLookup(target, lookupNode)
		l.claim = dl.claim
		pathIdx := p
		l.onComplete = func(closest []Contact, responded int) {
			dl.pathDone(pathIdx, closest, responded)
		}
		dl.paths = append(dl.paths, l)
	}
	// Start after all paths exist: a path finishing instantly (empty
	// share) must still see the full bookkeeping. merge consults the
	// shared claim set through l.claim.
	for p, l := range dl.paths {
		l.merge(shares[p])
		l.step()
		l.retire()
	}
}

// claim reserves a contact for one path; it reports false when another
// path already owns it, keeping the paths vertex-disjoint.
func (dl *disjointLookup) claim(nodeID id.ID) bool {
	if dl.claimed[nodeID] {
		return false
	}
	dl.claimed[nodeID] = true
	return true
}

func (dl *disjointLookup) pathDone(_ int, closest []Contact, responded int) {
	dl.remaining--
	if responded > 0 {
		dl.resultSucceeded++
	}
	dl.resultResponded += responded
	dl.merged = append(dl.merged, closest...)
	if dl.remaining > 0 {
		return
	}
	dl.node.stats.LookupsCompleted++
	// Merge: sort by distance, dedupe, trim to k.
	out := make([]Contact, 0, len(dl.merged))
	seen := map[id.ID]bool{}
	for {
		var best *Contact
		for i := range dl.merged {
			c := &dl.merged[i]
			if seen[c.ID] {
				continue
			}
			if best == nil || c.ID.CloserTo(dl.target, best.ID) {
				best = c
			}
		}
		if best == nil || len(out) >= dl.node.cfg.K {
			break
		}
		seen[best.ID] = true
		out = append(out, *best)
	}
	if dl.done != nil {
		dl.done(DisjointResult{
			Closest:        out,
			PathsSucceeded: dl.resultSucceeded,
			Responded:      dl.resultResponded,
		})
	}
}
