package snapshot

import (
	"fmt"
	"slices"
	"time"

	"kadre/internal/graph"
	"kadre/internal/id"
	"kadre/internal/kademlia"
	"kadre/internal/simnet"
)

// SlotMap assigns stable vertex slots to population members across
// captures: a member keeps its slot for its whole lifetime, a departed
// member's slot is tombstoned (vacant), and joins recycle the lowest
// vacant slot before new slots are appended. Because slots are stable,
// two consecutive captures live in the same vertex space whenever the
// slot count did not grow — which is what lets the connectivity engine
// rebind incrementally across joins, leaves, and strikes instead of
// renumbering the world per snapshot.
//
// The assignment is deterministic: members are processed in the caller's
// canonical order and vacant slots are recycled smallest-first, so a
// replayed run reproduces the exact slot layout.
//
// The key type identifies a member; the simulation uses simnet.Addr
// (unique and never reused), the churn oracle plain ints.
type SlotMap[K comparable] struct {
	slot     map[K]int
	occupant []K
	vacant   []bool
	free     []int // vacant slots, kept sorted ascending
	seen     map[K]bool
}

// Len returns the slot count (active plus vacant).
func (m *SlotMap[K]) Len() int { return len(m.occupant) }

// Live returns the number of occupied slots.
func (m *SlotMap[K]) Live() int { return len(m.slot) }

// Utilization returns Live/Len — the occupied fraction of the slot
// table (1 for an empty table). Long departures-heavy runs drive it
// down; Compact restores it to 1.
func (m *SlotMap[K]) Utilization() float64 {
	if len(m.occupant) == 0 {
		return 1
	}
	return float64(len(m.slot)) / float64(len(m.occupant))
}

// Reserve pre-sizes the internal tables for a peak population of n
// members, so a setup-phase join burst assigns slots without reallocating
// mid-burst. Only useful before the first Assign (maps cannot be resized
// later); afterwards it still pre-grows the slices.
func (m *SlotMap[K]) Reserve(n int) {
	if n <= 0 {
		return
	}
	if m.slot == nil {
		m.slot = make(map[K]int, n)
		m.seen = make(map[K]bool, n)
	}
	if cap(m.occupant) < n {
		occ := make([]K, len(m.occupant), n)
		copy(occ, m.occupant)
		m.occupant = occ
	}
	if cap(m.vacant) < n {
		vac := make([]bool, len(m.vacant), n)
		copy(vac, m.vacant)
		m.vacant = vac
	}
	if cap(m.free) < n {
		free := make([]int, len(m.free), n)
		copy(free, m.free)
		m.free = free
	}
}

// Compact re-densifies the slot table: live occupants are renumbered to
// [0, Live) preserving their relative slot order, tombstones are
// dropped, and Len shrinks to Live. It returns the remap (old slot ->
// new slot, -1 for vacant slots), or nil when the table has no
// tombstones and nothing changed.
//
// Compaction renumbers the vertex space, so every consumer holding
// slot-coordinate state — bound engines, diff bases —
// must treat the next capture as a fresh vertex space. The
// IncrementalBinder does this automatically: the post-compaction
// capture has a smaller slot count, which forces its full-bind path.
// Analytical results are unaffected: the engine answers in canonical
// compacted rank numbering, which is invariant under slot renumbering
// (the churn oracle pins this across compaction events).
func (m *SlotMap[K]) Compact() []int {
	if len(m.free) == 0 {
		return nil
	}
	remap := make([]int, len(m.occupant))
	n := 0
	for s, k := range m.occupant {
		if m.vacant[s] {
			remap[s] = -1
			continue
		}
		remap[s] = n
		m.occupant[n] = k
		m.slot[k] = n
		n++
	}
	m.occupant = m.occupant[:n]
	m.vacant = m.vacant[:n]
	for i := range m.vacant {
		m.vacant[i] = false
	}
	m.free = m.free[:0]
	return remap
}

// Assign updates the slot table for the given live members (in canonical
// capture order) and appends their slots, in that same order, to order —
// the rank-to-slot compaction map translating stable slots back to the
// canonical dense numbering. Members that disappeared since the last
// call have their slots tombstoned; new members claim the lowest vacant
// slot, or a fresh one when none is free.
func (m *SlotMap[K]) Assign(live []K, order []int) []int {
	if m.slot == nil {
		m.slot = make(map[K]int)
		m.seen = make(map[K]bool)
	}
	clear(m.seen)
	for _, k := range live {
		m.seen[k] = true
	}
	freed := false
	for s, k := range m.occupant {
		if !m.vacant[s] && !m.seen[k] {
			m.vacant[s] = true
			delete(m.slot, k)
			m.free = append(m.free, s)
			freed = true
		}
	}
	if freed {
		slices.Sort(m.free)
	}
	for _, k := range live {
		s, ok := m.slot[k]
		if !ok {
			if len(m.free) > 0 {
				s = m.free[0]
				m.free = m.free[1:]
			} else {
				s = len(m.occupant)
				m.occupant = append(m.occupant, k)
				m.vacant = append(m.vacant, false)
			}
			m.occupant[s] = k
			m.vacant[s] = false
			m.slot[k] = s
		}
		order = append(order, s)
	}
	return order
}

// SlotIndex is the population slot table keyed by network address, the
// stable node identity of the simulation (addresses are never reused).
type SlotIndex = SlotMap[simnet.Addr]

// BuildSlotGraph is the generic core of a stable-slot capture over any
// population representation: it assigns slots for the live members (in
// canonical order), builds the slot-space graph from the emitted
// directed edges — dropping any edge with a non-live endpoint or a
// self-loop, exactly like CaptureSlots drops routing-table entries to
// departed nodes — and returns the graph with the rank->slot compaction
// map. The churn oracle and the membership benchmarks capture through
// this helper over plain ids, so their traces cannot drift from the
// production capture recipe.
func BuildSlotGraph[K comparable](m *SlotMap[K], live []K, edges func(emit func(u, v K))) (*graph.Digraph, []int) {
	order := m.Assign(live, nil)
	slotOf := make(map[K]int, len(live))
	for i, k := range live {
		slotOf[k] = order[i]
	}
	g := graph.NewDigraph(m.Len())
	edges(func(u, v K) {
		su, uok := slotOf[u]
		sv, vok := slotOf[v]
		if uok && vok && su != sv {
			g.AddEdge(su, sv)
		}
	})
	return g, order
}

// SlotSnapshot is a stable-slot capture of the network: one graph vertex
// per population slot (vacant slots are isolated), plus the compaction
// map back to the canonical dense numbering that plain Capture produces.
// The per-node metadata is stored in dense rank order, so IDs[r] and
// Addrs[r] describe the node that Capture would have put at vertex r.
type SlotSnapshot struct {
	// Time is the virtual capture time.
	Time time.Duration
	// Graph has one vertex per slot; edges only ever join active slots.
	Graph *graph.Digraph
	// Order maps dense rank -> slot, listing the active slots in
	// canonical capture order (live nodes in join order). len(Order) is
	// the live node count.
	Order []int
	// IDs and Addrs identify the live nodes by dense rank.
	IDs   []id.ID
	Addrs []simnet.Addr
}

// N returns the number of live nodes in the snapshot.
func (s *SlotSnapshot) N() int { return len(s.Order) }

// Slots returns the slot-space vertex count (active plus vacant).
func (s *SlotSnapshot) Slots() int { return s.Graph.N() }

// LargestSCCFraction returns |largest SCC| / live nodes. Vacant slots
// are singleton components and never outweigh the live largest, so the
// value equals the canonical dense capture's.
func (s *SlotSnapshot) LargestSCCFraction() float64 {
	if s.N() == 0 {
		return 0
	}
	return float64(s.Graph.LargestSCC()) / float64(s.N())
}

// Dense converts the slot capture to the canonical compacted Snapshot —
// byte-for-byte what Capture would have produced at the same instant —
// for consumers that persist or post-process snapshots.
func (s *SlotSnapshot) Dense() *Snapshot {
	rank := make([]int, s.Slots())
	for r, slot := range s.Order {
		rank[slot] = r
	}
	out := &Snapshot{
		Time:  s.Time,
		IDs:   slices.Clone(s.IDs),
		Addrs: slices.Clone(s.Addrs),
		Graph: graph.NewDigraph(s.N()),
	}
	for _, e := range s.Graph.Edges() {
		out.Graph.AddEdge(rank[e.U], rank[e.V])
	}
	return out
}

// CaptureSlots builds a stable-slot snapshot from the live nodes in the
// given slice, updating idx: departed nodes tombstone their slots, new
// live nodes claim recycled (or fresh) slots. Like Capture it excludes
// departed nodes and routing-table entries pointing at them; unlike
// Capture, vertex numbers are persistent slots rather than a per-capture
// compaction, so consecutive captures with unchanged slot count are
// diffable and the engine can rebind incrementally across membership
// changes. Order carries the canonical compaction for reporting.
func CaptureSlots(now time.Duration, nodes []*kademlia.Node, idx *SlotIndex) *SlotSnapshot {
	live := make([]*kademlia.Node, 0, len(nodes))
	addrs := make([]simnet.Addr, 0, len(nodes))
	for _, n := range nodes {
		if n.Running() {
			live = append(live, n)
			addrs = append(addrs, n.Addr())
		}
	}
	order := idx.Assign(addrs, make([]int, 0, len(live)))
	s := &SlotSnapshot{
		Time:  now,
		Order: order,
		IDs:   make([]id.ID, len(live)),
		Addrs: addrs,
		Graph: graph.NewDigraph(idx.Len()),
	}
	for r, n := range live {
		s.IDs[r] = n.ID()
	}
	rank := rankByAddr(addrs)
	var contacts []kademlia.Contact // one buffer for every node's table
	for r, n := range live {
		contacts = n.Table().AppendContacts(contacts[:0])
		for _, c := range contacts {
			if j, ok := liveRank(rank, s.IDs, c); ok && j != r {
				s.Graph.AddEdge(order[r], order[j])
			}
		}
	}
	if len(order) != len(live) {
		panic(fmt.Sprintf("snapshot: slot assignment produced %d slots for %d live nodes", len(order), len(live)))
	}
	return s
}
