// Quickstart: build a small Kademlia network, look up a stored data
// object, capture the connectivity graph, and compute the network's
// resilience against compromised nodes — the paper's core loop, written
// against the simulator (eventsim, simnet, kademlia), snapshot capture
// and connectivity packages the commands use.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kadre/internal/connectivity"
	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/kademlia"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if err := flag.NewFlagSet("quickstart", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	// A deterministic simulator: same seed, same run, every time.
	sim := eventsim.New(7)
	net := simnet.New(sim, simnet.Config{})

	// Thirty nodes with small buckets (k=5) so the numbers stay readable.
	cfg := kademlia.Config{Bits: 64, K: 5, Alpha: 3, StalenessLimit: 1}
	var nodes []*kademlia.Node
	for i := 0; i < 30; i++ {
		n, err := kademlia.NewNode(cfg, simnet.Addr(i+1), net)
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
	key := id.Hash(64, []byte("door-sensor-7/state"))
	nodes[3].Store(key, []byte("open"), func(sent int) {
		fmt.Fprintf(stdout, "stored on %d nodes closest to %s\n", sent, key)
	})
	sim.RunUntil(sim.Now() + time.Minute)
	nodes[22].Get(key, func(value []byte, ok bool) {
		fmt.Fprintf(stdout, "lookup from another node: value=%q found=%v\n", value, ok)
	})
	sim.RunUntil(sim.Now() + time.Minute)

	// Snapshot the routing tables into a connectivity graph (§4.2) and
	// measure the vertex connectivity (§4.3-4.4).
	snap := snapshot.Capture(sim.Now(), nodes)
	eng := connectivity.MustNewEngine(connectivity.EngineOptions{})
	eng.Bind(snap.Graph)
	kappa := eng.Analyze(connectivity.Query{SampleFraction: 1, MinOnly: true}).Min
	fmt.Fprintf(stdout, "network: %d nodes, %d routing edges, symmetry %.2f\n",
		snap.N(), snap.Graph.M(), snap.Graph.SymmetryRatio())
	fmt.Fprintf(stdout, "vertex connectivity kappa(D) = %d\n", kappa)
	fmt.Fprintf(stdout, "resilience r = %d: information exchange survives any %d compromised nodes (Eq. 2)\n",
		connectivity.Resilience(kappa), connectivity.Resilience(kappa))

	// Which nodes would an optimal attacker take? The minimum vertex cut.
	cut, pair, ok, err := eng.GraphCut(connectivity.Query{SampleFraction: 1})
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintf(stdout, "optimal attack: compromising %d nodes %v separates node %s from node %s\n",
			len(cut), cut, snap.IDs[pair[0]], snap.IDs[pair[1]])
	}
	return nil
}
