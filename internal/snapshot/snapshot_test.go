package snapshot

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/graph"
	"kadre/internal/kademlia"
	"kadre/internal/simnet"
)

func buildNetwork(t *testing.T, n int) (*eventsim.Simulator, []*kademlia.Node) {
	t.Helper()
	sim, _, nodes := buildNetworkAt(t, n, 64, func(i int) simnet.Addr { return simnet.Addr(i + 1) })
	return sim, nodes
}

// buildNetworkAt is buildNetwork with node i at address addr(i), also
// handing back the network for later joins.
func buildNetworkAt(t *testing.T, n, bits int, addr func(i int) simnet.Addr) (*eventsim.Simulator, *simnet.Network, []*kademlia.Node) {
	t.Helper()
	sim := eventsim.New(42)
	net := simnet.New(sim, simnet.Config{Latency: simnet.UniformLatency{Min: 20 * time.Millisecond, Max: 20 * time.Millisecond}})
	cfg := kademlia.Config{Bits: bits, K: 5, Alpha: 3, StalenessLimit: 1}
	var nodes []*kademlia.Node
	for i := 0; i < n; i++ {
		node, err := kademlia.NewNode(cfg, addr(i), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for i := 1; i < n; i++ {
		node := nodes[i]
		sim.MustSchedule(time.Duration(i)*time.Second, func() {
			_ = node.Join(nodes[0].Contact(), nil)
		})
	}
	sim.RunUntil(5 * time.Minute)
	return sim, net, nodes
}

func TestCaptureReflectsRoutingTables(t *testing.T) {
	sim, nodes := buildNetwork(t, 15)
	s := Capture(sim.Now(), nodes)
	if s.N() != 15 {
		t.Fatalf("snapshot has %d vertices, want 15", s.N())
	}
	if s.Graph.M() == 0 {
		t.Fatal("no edges captured")
	}
	// Spot-check edge semantics: edge (i, j) iff node j in node i's table.
	index := map[string]int{}
	for i, nid := range s.IDs {
		index[nid.String()] = i
	}
	for i, n := range nodes {
		for _, c := range n.Table().Contacts() {
			j, ok := index[c.ID.String()]
			if !ok {
				continue
			}
			if !s.Graph.HasEdge(i, j) {
				t.Fatalf("missing edge %d->%d for contact %v", i, j, c)
			}
		}
		if s.Graph.OutDegree(i) != n.Table().Size() {
			t.Fatalf("node %d out-degree %d != table size %d",
				i, s.Graph.OutDegree(i), n.Table().Size())
		}
	}
}

func TestCaptureExcludesDeparted(t *testing.T) {
	sim, nodes := buildNetwork(t, 12)
	gone := nodes[7]
	gone.Leave()
	s := Capture(sim.Now(), nodes)
	if s.N() != 11 {
		t.Fatalf("snapshot has %d vertices, want 11", s.N())
	}
	for _, nid := range s.IDs {
		if nid.Equal(gone.ID()) {
			t.Fatal("departed node present in snapshot")
		}
	}
	// Edges to the departed node must have been dropped even though
	// routing tables may still reference it.
	stillKnown := false
	for _, n := range nodes {
		if n.Running() && n.Table().Contains(gone.ID()) {
			stillKnown = true
		}
	}
	if !stillKnown {
		t.Log("no table references the departed node; edge-drop not exercised")
	}
}

func TestSnapshotTime(t *testing.T) {
	sim, nodes := buildNetwork(t, 5)
	s := Capture(sim.Now(), nodes)
	if s.Time != sim.Now() {
		t.Fatalf("Time = %v, want %v", s.Time, sim.Now())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sim, nodes := buildNetwork(t, 10)
	s := Capture(sim.Now(), nodes)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Time != s.Time || back.N() != s.N() || back.Graph.M() != s.Graph.M() {
		t.Fatalf("round trip mismatch: %v/%d/%d vs %v/%d/%d",
			back.Time, back.N(), back.Graph.M(), s.Time, s.N(), s.Graph.M())
	}
	for i := range s.IDs {
		if !back.IDs[i].Equal(s.IDs[i]) || back.Addrs[i] != s.Addrs[i] {
			t.Fatalf("vertex %d mismatch", i)
		}
	}
	for _, e := range s.Graph.Edges() {
		if !back.Graph.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"garbage", "{"},
		{"bad id hex", `{"bits":64,"nodes":[{"id":"zz","addr":1}],"edges":[]}`},
		{"edge out of range", `{"bits":64,"nodes":[{"id":"0000000000000001","addr":1}],"edges":[[0,5]]}`},
		{"self-loop edge", `{"bits":64,"nodes":[{"id":"0000000000000001","addr":1}],"edges":[[0,0]]}`},
		{"too many nodes", `{"bits":64,"nodes":[` + strings.Repeat(`{"id":"0000000000000001"},`, graph.MaxVertices) + `{"id":"0000000000000001"}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(tt.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestEmptySnapshot(t *testing.T) {
	s := Capture(0, nil)
	if s.N() != 0 {
		t.Fatal("empty capture should have no vertices")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 0 {
		t.Fatal("round-tripped empty snapshot not empty")
	}
}

func TestSnapshotNearlyUndirected(t *testing.T) {
	// The paper's §5.2 observation: Kademlia connectivity graphs are close
	// to undirected. After a settled bootstrap, the symmetry ratio should
	// be substantial.
	sim, nodes := buildNetwork(t, 30)
	s := Capture(sim.Now(), nodes)
	if ratio := s.Graph.SymmetryRatio(); ratio < 0.5 {
		t.Fatalf("symmetry ratio %.3f unexpectedly low", ratio)
	}
}
