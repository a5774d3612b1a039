// Package snapshot captures the routing tables of a running Kademlia
// network as a directed connectivity graph (§4.2 of the paper: vertex per
// node, edge (v, w) iff w appears in v's routing table) and persists
// snapshots to disk for offline connectivity analysis, mirroring the
// paper's interrupt-simulation-and-dump methodology.
package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"kadre/internal/graph"
	"kadre/internal/id"
	"kadre/internal/kademlia"
	"kadre/internal/simnet"
)

// Snapshot is the connectivity graph of a network at one instant.
type Snapshot struct {
	// Time is the virtual capture time.
	Time time.Duration
	// IDs maps graph vertex index to node identifier.
	IDs []id.ID
	// Addrs maps graph vertex index to network address.
	Addrs []simnet.Addr
	// Graph holds one vertex per live node and one edge per live
	// routing-table entry.
	Graph *graph.Digraph
}

// Capture builds a snapshot from the live nodes in the given slice.
// Departed nodes are excluded, and routing-table entries pointing at
// departed nodes produce no edge: the connectivity graph describes the
// current network, not its memory of the past.
func Capture(now time.Duration, nodes []*kademlia.Node) *Snapshot {
	live := make([]*kademlia.Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Running() {
			live = append(live, n)
		}
	}
	s := &Snapshot{
		Time:  now,
		IDs:   make([]id.ID, len(live)),
		Addrs: make([]simnet.Addr, len(live)),
		Graph: graph.NewDigraph(len(live)),
	}
	for i, n := range live {
		s.IDs[i] = n.ID()
		s.Addrs[i] = n.Addr()
	}
	rank := rankByAddr(s.Addrs)
	var contacts []kademlia.Contact // one buffer for every node's table
	for i, n := range live {
		contacts = n.Table().AppendContacts(contacts[:0])
		for _, c := range contacts {
			if j, ok := liveRank(rank, s.IDs, c); ok && j != i {
				s.Graph.AddEdge(i, j)
			}
		}
	}
	return s
}

// rankByAddr indexes live nodes by address, in rank order.
func rankByAddr(addrs []simnet.Addr) map[simnet.Addr]int {
	rank := make(map[simnet.Addr]int, len(addrs))
	for r, a := range addrs {
		rank[a] = r
	}
	return rank
}

// liveRank resolves a routing-table contact to the rank of the live node
// holding it. Contacts come only from the nodes' own envelopes, so a
// contact's (ID, Addr) is its node's own pair and addresses, unlike IDs,
// are never shared; the ID check confirms the match. It reports false
// when c names no live node.
func liveRank(rank map[simnet.Addr]int, ids []id.ID, c kademlia.Contact) (int, bool) {
	r, ok := rank[c.Addr]
	return r, ok && ids[r].Equal(c.ID)
}

// N returns the number of live nodes in the snapshot.
func (s *Snapshot) N() int { return s.Graph.N() }

// jsonSnapshot is the serialized form.
type jsonSnapshot struct {
	TimeNS int64      `json:"time_ns"`
	Bits   int        `json:"bits"`
	Nodes  []jsonNode `json:"nodes"`
	Edges  [][2]int   `json:"edges"`
}

type jsonNode struct {
	ID   string `json:"id"`
	Addr uint64 `json:"addr"`
}

// WriteJSON serialises the snapshot.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	out := jsonSnapshot{TimeNS: int64(s.Time), Nodes: make([]jsonNode, len(s.IDs))}
	if len(s.IDs) > 0 {
		out.Bits = s.IDs[0].Bits()
	}
	for i := range s.IDs {
		out.Nodes[i] = jsonNode{ID: s.IDs[i].String(), Addr: uint64(s.Addrs[i])}
	}
	for _, e := range s.Graph.Edges() {
		out.Edges = append(out.Edges, [2]int{e.U, e.V})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("snapshot: write json: %w", err)
	}
	return nil
}

// ReadJSON parses a snapshot written by WriteJSON. Self-loop edges and
// more than graph.MaxVertices nodes are errors.
func ReadJSON(r io.Reader) (*Snapshot, error) {
	var in jsonSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("snapshot: read json: %w", err)
	}
	if len(in.Nodes) > graph.MaxVertices {
		return nil, fmt.Errorf("snapshot: %d nodes exceed the limit of %d", len(in.Nodes), graph.MaxVertices)
	}
	s := &Snapshot{
		Time:  time.Duration(in.TimeNS),
		IDs:   make([]id.ID, len(in.Nodes)),
		Addrs: make([]simnet.Addr, len(in.Nodes)),
		Graph: graph.NewDigraph(len(in.Nodes)),
	}
	for i, n := range in.Nodes {
		parsed, err := id.Parse(in.Bits, n.ID)
		if err != nil {
			return nil, fmt.Errorf("snapshot: node %d: %w", i, err)
		}
		s.IDs[i] = parsed
		s.Addrs[i] = simnet.Addr(n.Addr)
	}
	for _, e := range in.Edges {
		if e[0] < 0 || e[0] >= len(in.Nodes) || e[1] < 0 || e[1] >= len(in.Nodes) {
			return nil, fmt.Errorf("snapshot: edge %v out of range", e)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("snapshot: edge %v is a self-loop", e)
		}
		s.Graph.AddEdge(e[0], e[1])
	}
	return s, nil
}
