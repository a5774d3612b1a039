package main

import (
	"fmt"
	"math/rand"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/graph"
	"kadre/internal/id"
	"kadre/internal/kademlia"
	"kadre/internal/maxflow"
	"kadre/internal/simnet"
)

// Probe sizes: enough work for a steady number, little enough that the
// probes stay a small part of a traced run.
type probeSizes struct {
	events, messages, lookups, sources, targets int
}

var (
	fullProbes  = probeSizes{events: 1_000_000, messages: 500_000, lookups: 2000, sources: 25, targets: 20}
	quickProbes = probeSizes{events: 20_000, messages: 10_000, lookups: 50, sources: 5, targets: 4}
)

// scenarioLatency is the latency model the scenario runner gives simnet.
var scenarioLatency = simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond}

// probes times the simulator's layers and the two production solvers in
// isolation, built from public constructors only, at the size and k of
// the workload's first config and on the final snapshot it captured.
func probes(o options, first *recording, r *report) error {
	sizes := fullProbes
	if o.quick {
		sizes = quickProbes
	}
	cfg := first.res.Config
	r.set("eventsim.ns_per_event", probeEventsim(sizes.events))
	r.set("simnet.ns_per_msg", probeSimnet(cfg.Seed, sizes.messages))
	lookupUS, msgs, err := probeKademlia(cfg.Seed, cfg.Size, kademlia.Config{
		Bits: cfg.Bits, K: cfg.K, Alpha: cfg.Alpha, StalenessLimit: cfg.Staleness,
	}.WithDefaults(), sizes.lookups)
	if err != nil {
		return err
	}
	r.setSamples("kademlia.lookup_us", lookupUS)
	r.set("kademlia.msgs_per_lookup", msgs)

	if len(first.snaps) == 0 {
		return nil
	}
	final := first.snaps[len(first.snaps)-1].Graph
	pairs := probePairs(final, cfg.Seed, sizes.sources, sizes.targets)
	if len(pairs) == 0 {
		// A complete graph has no non-adjacent pair to push a flow between.
		return nil
	}
	r.setSamples("maxflow.haoorlin_us_per_pair", probeMaxflow(final, maxflow.HaoOrlin, pairs))
	r.setSamples("maxflow.dinic_us_per_pair", probeMaxflow(final, maxflow.Dinic, pairs))
	return nil
}

// probeEventsim pushes n no-op events through the kernel in waves of ten
// thousand pending events, a queue depth like a scenario's timers, and
// returns the nanoseconds one schedule-and-fire costs.
func probeEventsim(n int) float64 {
	const wave = 10_000
	sim := eventsim.New(1)
	nop := func() {}
	t0 := time.Now()
	for done := 0; done < n; done += wave {
		for i := 0; i < wave; i++ {
			sim.MustSchedule(time.Duration(i%1000)*time.Millisecond, nop)
		}
		sim.Run()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(sim.Processed())
}

// pinger bounces every message it is delivered back to its peer until
// the shared budget is spent.
type pinger struct {
	net        *simnet.Network
	self, peer simnet.Addr
	left       *int
}

func (p *pinger) Deliver(_ simnet.Addr, payload any) {
	if *p.left > 0 {
		*p.left--
		p.net.Send(p.self, p.peer, payload)
	}
}

// probeSimnet bounces n messages between two handlers, 64 in flight,
// under the scenario's latency model, and returns the nanoseconds one
// send-and-deliver costs.
func probeSimnet(seed int64, n int) float64 {
	sim := eventsim.New(seed)
	net := simnet.New(sim, simnet.Config{Latency: scenarioLatency})
	left := n
	a := &pinger{net: net, self: 1, peer: 2, left: &left}
	b := &pinger{net: net, self: 2, peer: 1, left: &left}
	// Attach only fails for a taken address.
	_ = net.Attach(a.self, a)
	_ = net.Attach(b.self, b)
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		left--
		net.Send(a.self, b.self, i)
	}
	sim.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(net.Stats().Sent)
}

// probeKademlia joins size nodes into one network, lets it settle, then
// times lookups of random targets from random nodes, each stepped to its
// callback. It returns the microseconds of every lookup and the mean
// messages one put on the network.
func probeKademlia(seed int64, size int, kc kademlia.Config, lookups int) ([]float64, float64, error) {
	sim := eventsim.New(seed)
	net := simnet.New(sim, simnet.Config{Latency: scenarioLatency})
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*kademlia.Node, 0, size)
	for i := 0; i < size; i++ {
		node, err := kademlia.NewNode(kc, simnet.Addr(i+1), net)
		if err != nil {
			return nil, 0, fmt.Errorf("kademlia probe: %w", err)
		}
		if err := node.Start(); err != nil {
			return nil, 0, fmt.Errorf("kademlia probe: %w", err)
		}
		if len(nodes) > 0 {
			if err := node.Join(nodes[rng.Intn(len(nodes))].Contact(), nil); err != nil {
				return nil, 0, fmt.Errorf("kademlia probe: %w", err)
			}
		}
		nodes = append(nodes, node)
		sim.RunUntil(sim.Now() + 5*time.Second)
	}
	sim.RunUntil(sim.Now() + 10*time.Minute)

	before := net.Stats().Sent
	us := make([]float64, 0, lookups)
	for i := 0; i < lookups; i++ {
		done := false
		t0 := time.Now()
		nodes[rng.Intn(len(nodes))].Lookup(id.Random(kc.Bits, rng), func([]kademlia.Contact, int) { done = true })
		for !done && sim.Step() {
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if !done {
			return nil, 0, fmt.Errorf("kademlia probe: lookup %d never completed", i)
		}
	}
	return us, float64(net.Stats().Sent-before) / float64(lookups), nil
}

// probePairs draws up to sources random sources of g, each with up to
// targets random non-adjacent targets: the shape of a connectivity
// sweep, many sinks per source.
func probePairs(g *graph.Digraph, seed int64, sources, targets int) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]int
	for _, v := range rng.Perm(g.N()) {
		if sources == 0 {
			break
		}
		found := 0
		for _, w := range rng.Perm(g.N()) {
			if found == targets {
				break
			}
			if w != v && !g.HasEdge(v, w) {
				pairs = append(pairs, [2]int{v, w})
				found++
			}
		}
		if found > 0 {
			sources--
		}
	}
	return pairs
}

// evenEdges feeds a unit-capacity edge list to a solver.
type evenEdges []graph.Edge

func (e evenEdges) NumEdges() int { return len(e) }
func (e evenEdges) EdgeAt(i int) (int, int, int32) {
	return e[i].U, e[i].V, 1
}

// probeMaxflow times one exact max-flow per pair on the Even transform
// of g, sources announced to the solver as a sweep does, and returns the
// microseconds of every pair.
func probeMaxflow(g *graph.Digraph, algo maxflow.Algorithm, pairs [][2]int) []float64 {
	solver := algo.NewSolverSource(2*g.N(), evenEdges(graph.EvenEdges(g)))
	us := make([]float64, 0, len(pairs))
	source := -1
	for _, p := range pairs {
		if p[0] != source {
			source = p[0]
			solver.PrepareSource(graph.Out(source))
		}
		t0 := time.Now()
		solver.MaxFlow(graph.Out(p[0]), graph.In(p[1]))
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us
}
