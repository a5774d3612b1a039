// Quickstart: build a small Kademlia network, look up a stored data
// object, capture the connectivity graph, and compute the network's
// resilience against compromised nodes — the paper's core loop in fifty
// lines of API.
package main

import (
	"fmt"
	"os"
	"time"

	"kadre"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A deterministic simulator: same seed, same run, every time.
	sim := kadre.NewSimulator(7)
	net := kadre.NewNetwork(sim, kadre.NetworkConfig{})

	// Thirty nodes with small buckets (k=5) so the numbers stay readable.
	cfg := kadre.NodeConfig{Bits: 64, K: 5, Alpha: 3, StalenessLimit: 1}
	var nodes []*kadre.Node
	for i := 0; i < 30; i++ {
		n, err := kadre.NewNode(cfg, kadre.Addr(i+1), net)
		if err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Contact(), nil); err != nil {
			return err
		}
	}
	sim.RunUntil(5 * time.Minute)

	// Disseminate a data object and read it back from another node.
	key := kadre.HashID(64, []byte("door-sensor-7/state"))
	nodes[3].Store(key, []byte("open"), func(sent int) {
		fmt.Printf("stored on %d nodes closest to %s\n", sent, key)
	})
	sim.RunUntil(sim.Now() + time.Minute)
	nodes[22].Get(key, func(value []byte, ok bool) {
		fmt.Printf("lookup from another node: value=%q found=%v\n", value, ok)
	})
	sim.RunUntil(sim.Now() + time.Minute)

	// Snapshot the routing tables into a connectivity graph (§4.2) and
	// measure the vertex connectivity (§4.3-4.4).
	snap := kadre.CaptureSnapshot(sim.Now(), nodes)
	kappa := kadre.VertexConnectivity(snap.Graph)
	fmt.Printf("network: %d nodes, %d routing edges, symmetry %.2f\n",
		snap.N(), snap.Graph.M(), snap.Graph.SymmetryRatio())
	fmt.Printf("vertex connectivity kappa(D) = %d\n", kappa)
	fmt.Printf("resilience r = %d: information exchange survives any %d compromised nodes (Eq. 2)\n",
		kadre.Resilience(kappa), kadre.Resilience(kappa))

	// Which nodes would an optimal attacker take? The minimum vertex cut.
	cut, pair, ok, err := kadre.GraphCut(snap.Graph, kadre.ConnectivityQuery{SampleFraction: 1.0})
	if err != nil {
		return err
	}
	if ok {
		fmt.Printf("optimal attack: compromising %d nodes %v separates node %s from node %s\n",
			len(cut), cut, snap.IDs[pair[0]], snap.IDs[pair[1]])
	}
	return nil
}
