package snapshot

import (
	"slices"
	"testing"
	"time"

	"kadre/internal/graph"
	"kadre/internal/id"
	"kadre/internal/kademlia"
	"kadre/internal/simnet"
)

func TestSlotMapStableAcrossChurn(t *testing.T) {
	var m SlotMap[int]
	order := m.Assign([]int{10, 11, 12, 13}, nil)
	if m.Len() != 4 {
		t.Fatalf("slot count %d, want 4", m.Len())
	}
	want := []int{0, 1, 2, 3}
	if !intSliceEq(order, want) {
		t.Fatalf("initial order %v, want %v", order, want)
	}
	// 11 leaves: its slot goes vacant, everyone else keeps theirs.
	order = m.Assign([]int{10, 12, 13}, nil)
	if !intSliceEq(order, []int{0, 2, 3}) {
		t.Fatalf("post-leave order %v, want [0 2 3]", order)
	}
	if m.Len() != 4 {
		t.Fatalf("slot count grew to %d on a leave", m.Len())
	}
	// 14 joins: it recycles the lowest vacant slot (11's old slot 1) and
	// ranks LAST in canonical order while holding a middle slot.
	order = m.Assign([]int{10, 12, 13, 14}, nil)
	if !intSliceEq(order, []int{0, 2, 3, 1}) {
		t.Fatalf("post-join order %v, want [0 2 3 1]", order)
	}
	if m.Len() != 4 {
		t.Fatalf("join should recycle, slot count %d", m.Len())
	}
	// A second join with no vacancy appends a new slot.
	order = m.Assign([]int{10, 12, 13, 14, 15}, nil)
	if !intSliceEq(order, []int{0, 2, 3, 1, 4}) || m.Len() != 5 {
		t.Fatalf("append join: order %v slots %d", order, m.Len())
	}
}

func TestSlotMapRecyclesLowestFirst(t *testing.T) {
	var m SlotMap[int]
	m.Assign([]int{1, 2, 3, 4, 5}, nil)
	m.Assign([]int{1, 3, 5}, nil)                // slots 1 and 3 vacant
	order := m.Assign([]int{1, 3, 5, 6, 7}, nil) // 6 -> slot 1, 7 -> slot 3
	if !intSliceEq(order, []int{0, 2, 4, 1, 3}) {
		t.Fatalf("order %v, want [0 2 4 1 3]", order)
	}
}

// TestCaptureSlotsDenseMatchesCapture pins the compaction-map contract:
// Dense() of a slot capture is exactly what the canonical Capture
// produces at the same instant — same vertex numbering, metadata, and
// edges — including after leaves and recycled joins have scrambled the
// slot order.
func TestCaptureSlotsDenseMatchesCapture(t *testing.T) {
	sim, nodes := buildNetwork(t, 15)
	var idx SlotIndex
	check := func(stage string) {
		t.Helper()
		ss := CaptureSlots(sim.Now(), nodes, &idx)
		want := Capture(sim.Now(), nodes)
		got := ss.Dense()
		if got.N() != want.N() || got.Graph.M() != want.Graph.M() {
			t.Fatalf("%s: dense %d/%d, want %d/%d", stage, got.N(), got.Graph.M(), want.N(), want.Graph.M())
		}
		for i := range want.IDs {
			if !got.IDs[i].Equal(want.IDs[i]) || got.Addrs[i] != want.Addrs[i] {
				t.Fatalf("%s: vertex %d metadata mismatch", stage, i)
			}
		}
		if !got.Graph.Equal(want.Graph) {
			t.Fatalf("%s: dense graph differs from canonical capture", stage)
		}
		if frac := ss.LargestSCCFraction(); frac != want.Graph.LargestSCCFraction() {
			t.Fatalf("%s: SCC fraction %v != dense %v", stage, frac, want.Graph.LargestSCCFraction())
		}
		if ss.Graph.SymmetryRatio() != want.Graph.SymmetryRatio() {
			t.Fatalf("%s: symmetry ratio differs between slot and dense graphs", stage)
		}
	}
	check("initial")
	nodes[3].Leave()
	nodes[9].Leave()
	check("after leaves")
	slots := idx.Len()
	check("stable")
	if idx.Len() != slots {
		t.Fatalf("slot count changed on a same-membership capture: %d -> %d", slots, idx.Len())
	}
}

func TestSlotMapCompact(t *testing.T) {
	var m SlotMap[int]
	m.Assign([]int{1, 2, 3, 4, 5, 6}, nil)
	m.Assign([]int{2, 4, 6}, nil) // slots 0, 2, 4 tombstoned
	if m.Len() != 6 || m.Live() != 3 {
		t.Fatalf("pre-compact len/live = %d/%d, want 6/3", m.Len(), m.Live())
	}
	if u := m.Utilization(); u != 0.5 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
	remap := m.Compact()
	// Live slots 1, 3, 5 (members 2, 4, 6) renumber to 0, 1, 2 in slot order.
	if !intSliceEq(remap, []int{-1, 0, -1, 1, -1, 2}) {
		t.Fatalf("remap %v, want [-1 0 -1 1 -1 2]", remap)
	}
	if m.Len() != 3 || m.Live() != 3 || m.Utilization() != 1 {
		t.Fatalf("post-compact len/live = %d/%d", m.Len(), m.Live())
	}
	// Members keep their (renumbered) slots on the next capture.
	order := m.Assign([]int{2, 4, 6}, nil)
	if !intSliceEq(order, []int{0, 1, 2}) {
		t.Fatalf("post-compact order %v, want [0 1 2]", order)
	}
	// A join after compaction appends — no stale tombstones to recycle.
	order = m.Assign([]int{2, 4, 6, 7}, nil)
	if !intSliceEq(order, []int{0, 1, 2, 3}) || m.Len() != 4 {
		t.Fatalf("post-compact join: order %v slots %d", order, m.Len())
	}
	// No tombstones: Compact is a no-op and says so.
	if remap := m.Compact(); remap != nil {
		t.Fatalf("no-op Compact returned remap %v", remap)
	}
}

func TestSlotMapCompactEmpty(t *testing.T) {
	var m SlotMap[int]
	if remap := m.Compact(); remap != nil {
		t.Fatalf("Compact of empty map returned %v", remap)
	}
	if u := m.Utilization(); u != 1 {
		t.Fatalf("empty utilization %v, want 1", u)
	}
}

// TestSlotMapReserveAbsorbsJoinBurst pins the pre-sizing contract: a
// Reserved slot table absorbs a setup-phase join burst up to the reserved
// population with only Reserve's own handful of allocations, where the
// unreserved table reallocates its maps and slices throughout the burst.
func TestSlotMapReserveAbsorbsJoinBurst(t *testing.T) {
	const peak = 512
	live := make([]int, 0, peak)
	order := make([]int, 0, peak)
	burst := func(m *SlotMap[int]) {
		live = live[:0]
		for wave := 0; len(live) < peak; wave++ {
			for i := 0; i < 64; i++ {
				live = append(live, len(live))
			}
			order = m.Assign(live, order[:0])
		}
	}
	reserved := testing.AllocsPerRun(5, func() {
		var m SlotMap[int]
		m.Reserve(peak)
		burst(&m)
	})
	unreserved := testing.AllocsPerRun(5, func() {
		var m SlotMap[int]
		burst(&m)
	})
	// Reserve itself allocates the two maps (a few allocations each at
	// this size) and three slices; the burst must add nothing on top.
	if reserved > 12 {
		t.Fatalf("reserved join burst allocated %.0f times, want <= 12", reserved)
	}
	if reserved >= unreserved {
		t.Fatalf("reserved burst allocated %.0f times, unreserved %.0f — pre-sizing buys nothing", reserved, unreserved)
	}
	// And pre-sizing must not change assignments.
	var a, b SlotMap[int]
	a.Reserve(peak)
	members := []int{3, 1, 4, 1, 5}
	if got, want := a.Assign([]int{3, 1, 4}, nil), b.Assign([]int{3, 1, 4}, nil); !intSliceEq(got, want) {
		t.Fatalf("reserved order %v != unreserved %v for %v", got, want, members)
	}
}

func intSliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// referenceCapture is the reference for the address-indexed captures:
// live nodes in slice order, and an edge (i, j) for every contact of node
// i whose ID is live node j's, looked up by ID in a map.
func referenceCapture(nodes []*kademlia.Node) *Snapshot {
	var live []*kademlia.Node
	for _, n := range nodes {
		if n.Running() {
			live = append(live, n)
		}
	}
	s := &Snapshot{Graph: graph.NewDigraph(len(live))}
	index := map[id.ID]int{}
	for i, n := range live {
		s.IDs = append(s.IDs, n.ID())
		s.Addrs = append(s.Addrs, n.Addr())
		index[n.ID()] = i
	}
	for i, n := range live {
		for _, c := range n.Table().Contacts() {
			if j, ok := index[c.ID]; ok && j != i {
				s.Graph.AddEdge(i, j)
			}
		}
	}
	return s
}

// TestCaptureMatchesIDKeyedReference holds Capture and CaptureSlots to the
// ID-keyed reference capture on a churned network: after the nodes with
// the highest addresses leave (their contacts linger in the tables and
// sit above every live address), after a middle node leaves, and after
// joins recycle slots — on dense addresses and on sparse ones.
func TestCaptureMatchesIDKeyedReference(t *testing.T) {
	layouts := map[string]func(i int) simnet.Addr{
		"dense": func(i int) simnet.Addr { return simnet.Addr(i + 1) },
		// Far apart, yet under simnet.AddrLimit: the network indexes its
		// hosts by address.
		"sparse": func(i int) simnet.Addr { return simnet.Addr(i+1) << 12 },
	}
	for name, addr := range layouts {
		t.Run(name, func(t *testing.T) {
			sim, net, nodes := buildNetworkAt(t, 24, 64, addr)
			var idx SlotIndex
			check := func(stage string, nodes []*kademlia.Node) {
				t.Helper()
				want := referenceCapture(nodes)
				for label, got := range map[string]*Snapshot{
					"Capture":      Capture(sim.Now(), nodes),
					"CaptureSlots": CaptureSlots(sim.Now(), nodes, &idx).Dense(),
				} {
					if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Addrs, want.Addrs) || !got.Graph.Equal(want.Graph) {
						t.Fatalf("%s: %s differs from the ID-keyed reference (%d/%d vs %d/%d vertices/edges)",
							stage, label, got.N(), got.Graph.M(), want.N(), want.Graph.M())
					}
				}
			}
			check("settled", nodes)

			for _, i := range []int{23, 22, 10} {
				nodes[i].Leave()
			}
			stale, above := 0, 0
			for _, n := range nodes[:22] {
				if !n.Running() {
					continue
				}
				for _, c := range n.Table().Contacts() {
					if c.Addr == nodes[10].Addr() || c.Addr == nodes[22].Addr() || c.Addr == nodes[23].Addr() {
						stale++
					}
					if c.Addr > nodes[21].Addr() {
						above++
					}
				}
			}
			if stale == 0 || above == 0 {
				t.Fatalf("churn left %d contacts to departed nodes, %d above every live address; want both > 0", stale, above)
			}
			check("after leaves", nodes)

			for i := 30; i < 32; i++ {
				n, err := kademlia.NewNode(nodes[0].Config(), addr(i), net)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Start(); err != nil {
					t.Fatal(err)
				}
				if err := n.Join(nodes[0].Contact(), nil); err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, n)
			}
			sim.RunUntil(sim.Now() + time.Minute)
			check("after joins", nodes)
		})
	}
}

// TestCaptureResolvesSharedIDsByAddress pins the capture's answer when
// live nodes share an ID, as they do at 8-bit IDs: a contact is the
// (ID, Addr) pair of the node that holds it, so edge (i, j) exists iff
// node j's own contact sits in node i's table. An ID-keyed capture would
// send every contact for a shared ID to the last node holding it; the
// test checks that the network really has such contacts.
func TestCaptureResolvesSharedIDsByAddress(t *testing.T) {
	sim, _, nodes := buildNetworkAt(t, 40, 8, func(i int) simnet.Addr { return simnet.Addr(i + 1) })
	want := graph.NewDigraph(len(nodes))
	for i, n := range nodes {
		for _, c := range n.Table().Contacts() {
			for j, m := range nodes {
				if j != i && c == m.Contact() {
					want.AddEdge(i, j)
				}
			}
		}
	}
	if byID := referenceCapture(nodes); byID.Graph.Equal(want) {
		t.Fatal("no contact names a node that shares its ID with a later one; the network exercises nothing")
	}
	var idx SlotIndex
	for label, got := range map[string]*Snapshot{
		"Capture":      Capture(sim.Now(), nodes),
		"CaptureSlots": CaptureSlots(sim.Now(), nodes, &idx).Dense(),
	} {
		if got.N() != len(nodes) || !got.Graph.Equal(want) {
			t.Fatalf("%s differs from the address-resolved graph (%d/%d vs %d/%d vertices/edges)", label, got.N(), got.Graph.M(), want.N(), want.M())
		}
	}
}
