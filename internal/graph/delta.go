package graph

import (
	"fmt"
)

// Delta is the difference between two digraphs over the same physical
// vertex set: cur = old - Removed + Added. It is the currency of
// incremental snapshot connectivity — adjacent snapshots of a stable
// membership window differ by a handful of routing-table edges, and
// feeding the difference to the analysis engine lets it patch its bound
// state in place instead of rebuilding per snapshot.
//
// Under stable-slot population indexing the vertex set is the slot
// space: slots persist across snapshots, so membership changes are also
// expressible as deltas. AddedVerts and RemovedVerts record the slots
// that became active (a join claiming the slot) and inactive (a leave or
// strike tombstoning it) between the two graphs; a removed slot's
// incident edges appear in Removed and an added slot's wiring in Added,
// so the edge lists alone still fully describe the graph transition —
// the vertex records carry the active-mask change for the analysis
// layer and for differential verification.
type Delta struct {
	Added   []Edge
	Removed []Edge
	// AddedVerts and RemovedVerts are the activated and deactivated
	// slots, each sorted ascending. Empty for same-membership deltas
	// (and always empty from plain DiffInto, which has no notion of
	// activity — use DiffSlotsInto to populate them).
	AddedVerts   []int
	RemovedVerts []int

	// Reused activity scratch for DiffSlotsInto (steady-state calls do
	// not allocate once grown to the slot count).
	oldActive, newActive []bool
}

// Reset empties the delta, keeping the backing arrays for reuse.
func (d *Delta) Reset() {
	d.Added = d.Added[:0]
	d.Removed = d.Removed[:0]
	d.AddedVerts = d.AddedVerts[:0]
	d.RemovedVerts = d.RemovedVerts[:0]
}

// Len returns the total number of edge changes.
func (d *Delta) Len() int { return len(d.Added) + len(d.Removed) }

// DiffInto computes the edge delta from old to cur into d, reusing d's
// backing arrays (steady-state calls do not allocate once the arrays have
// grown to the churn's working size). Both lists come out sorted by
// (U, V), read as one word-wise and-not per row pair, so equal graphs and
// equal diffs compare bytewise. The graphs must have the same vertex
// count — vertex identity across snapshots is the caller's contract — and
// DiffInto panics otherwise, because a diff between different vertex sets
// is meaningless rather than merely empty.
func DiffInto(old, cur *Digraph, d *Delta) {
	if old.N() != cur.N() {
		panic(fmt.Sprintf("graph: DiffInto over different vertex counts %d != %d", old.N(), cur.N()))
	}
	d.Reset()
	for u := 0; u < old.n; u++ {
		o, c := old.row(u), cur.row(u)
		for i := range o {
			eachBit(i<<6, o[i]&^c[i], func(v int) { d.Removed = append(d.Removed, Edge{U: u, V: v}) })
			eachBit(i<<6, c[i]&^o[i], func(v int) { d.Added = append(d.Added, Edge{U: u, V: v}) })
		}
	}
}

// DiffSlotsInto computes the full stable-slot delta from old to cur:
// the edge difference (exactly DiffInto) plus the vertex-activation
// difference read off the two capture orders, where an order lists the
// active slots in canonical (capture) sequence. Slots present in
// newOrder but not oldOrder come out in AddedVerts, the reverse in
// RemovedVerts, both sorted ascending. Like DiffInto it panics on
// differing vertex counts — a slot-space size change means the slot
// table grew, which is a full-rebind boundary, not a delta.
func DiffSlotsInto(old, cur *Digraph, oldOrder, newOrder []int, d *Delta) {
	DiffInto(old, cur, d)
	d.oldActive = markActive(d.oldActive, old.n, oldOrder)
	d.newActive = markActive(d.newActive, cur.n, newOrder)
	for v := 0; v < cur.n; v++ {
		switch {
		case d.newActive[v] && !d.oldActive[v]:
			d.AddedVerts = append(d.AddedVerts, v)
		case d.oldActive[v] && !d.newActive[v]:
			d.RemovedVerts = append(d.RemovedVerts, v)
		}
	}
}

func markActive(buf []bool, n int, order []int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	for _, s := range order {
		buf[s] = true
	}
	return buf
}

// ApplyTo patches g in place with the delta's edge changes (removals
// first, then additions) and reports whether every change was
// consistent: each removal named an existing edge and each addition a
// missing one. On an inconsistent delta the graph is left partially
// patched — callers wanting atomicity should apply to a clone. The
// vertex records are annotations for the analysis layer and do not
// change the graph (a deactivated slot is simply left isolated).
func (d *Delta) ApplyTo(g *Digraph) bool {
	ok := true
	for _, e := range d.Removed {
		if !g.RemoveEdge(e.U, e.V) {
			ok = false
		}
	}
	for _, e := range d.Added {
		if g.HasEdge(e.U, e.V) {
			ok = false
			continue
		}
		g.AddEdge(e.U, e.V)
	}
	return ok
}
