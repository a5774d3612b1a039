package kademlia

import (
	"sort"
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/simnet"
)

// trueClosest computes the ground-truth k closest live node ids to target.
func trueClosest(nodes []*Node, target id.ID, k int) []id.ID {
	var ids []id.ID
	for _, n := range nodes {
		if n.Running() {
			ids = append(ids, n.ID())
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].CloserTo(target, ids[j]) })
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
}

func TestLookupConvergesToTrueClosest(t *testing.T) {
	// In a settled, loss-free network, the iterative lookup must find a
	// large majority of the true k closest nodes, and the exact closest
	// node in nearly all cases (the lookup's defining guarantee). Let at
	// least two bucket-refresh cycles pass first: fresh-from-bootstrap
	// routing tables are legitimately spotty, which is the same setup
	// weakness the paper observes in Sims A-D.
	cfg := smallConfig() // k=5, refresh every 10 min
	c := newCluster(t, cfg, 40, 31)
	c.sim.RunUntil(c.sim.Now() + 25*time.Minute)
	r := c.sim.Rand()
	const trials = 15
	totalOverlap, totalWanted, exactClosest := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		target := id.Random(64, r)
		src := c.nodes[r.Intn(len(c.nodes))]
		var got []Contact
		src.Lookup(target, func(closest []Contact, _ int) { got = closest })
		c.sim.RunUntil(c.sim.Now() + time.Minute)
		want := trueClosest(c.nodes, target, 5)
		if len(got) == 0 {
			t.Fatalf("trial %d: lookup returned nothing", trial)
		}
		if got[0].ID.Equal(want[0]) {
			exactClosest++
		}
		wantSet := map[id.ID]bool{}
		for _, w := range want {
			wantSet[w] = true
		}
		for _, g := range got {
			if wantSet[g.ID] {
				totalOverlap++
			}
		}
		totalWanted += len(want)
	}
	if exactClosest < trials-2 {
		t.Fatalf("found the true closest node in only %d/%d trials", exactClosest, trials)
	}
	// Recall of the full k-closest set is bounded by routing-table
	// sparsity: with k=5 buckets and only maintenance traffic, tables
	// reference a thin slice of the network (this is the same effect the
	// paper leans on in Sims A-D). Require a solid majority rather than
	// perfection.
	if totalOverlap*10 < totalWanted*6 {
		t.Fatalf("recall %d/%d below 60%%", totalOverlap, totalWanted)
	}
}

func TestLookupTerminatesOnEmptyTable(t *testing.T) {
	c := newCluster(t, smallConfig(), 5, 32)
	// A brand-new node with nothing in its table: lookup must complete
	// immediately and empty rather than hang.
	n, err := NewNode(smallConfig(), 999, c.net)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	done := false
	n.Lookup(id.FromUint64(64, 1), func(closest []Contact, responded int) {
		done = true
		if len(closest) != 0 || responded != 0 {
			t.Errorf("empty-table lookup returned %v/%d", closest, responded)
		}
	})
	if !done {
		t.Fatal("lookup with empty table did not complete synchronously")
	}
}

func TestLookupRespondedCapsAtK(t *testing.T) {
	// The termination rule "k nodes successfully contacted" (§4.1).
	cfg := smallConfig() // k=5
	c := newCluster(t, cfg, 30, 33)
	var responded int
	c.nodes[2].Lookup(id.Random(64, c.sim.Rand()), func(_ []Contact, r int) { responded = r })
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	if responded == 0 {
		t.Fatal("no nodes responded")
	}
	if responded > cfg.K+cfg.Alpha {
		t.Fatalf("responded %d far exceeds k=%d: termination rule broken", responded, cfg.K)
	}
}

func TestLookupSurvivesAllCandidatesDead(t *testing.T) {
	// Every node the source knows leaves; the lookup must fail cleanly.
	c := newCluster(t, smallConfig(), 10, 34)
	src := c.nodes[0]
	for _, n := range c.nodes[1:] {
		n.Leave()
	}
	done := false
	src.Lookup(id.FromUint64(64, 77), func(closest []Contact, responded int) {
		done = true
		if responded != 0 {
			t.Errorf("dead network responded %d times", responded)
		}
	})
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	if !done {
		t.Fatal("lookup never terminated with dead candidates")
	}
}

func TestGetPrefersValueOverConvergence(t *testing.T) {
	// FIND_VALUE short-circuits the moment any node returns the value.
	c := newCluster(t, smallConfig(), 20, 35)
	key := id.FromUint64(64, 4242)
	c.nodes[5].Store(key, []byte("v"), nil)
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	found := false
	c.nodes[15].Get(key, func(v []byte, ok bool) { found = ok })
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	if !found {
		t.Fatal("stored value not found")
	}
}

// TestLateResponseIsNotMerged: a response that reaches a lookup after it
// finished is not merged: the candidates, their states and the responded
// count stay as the result left them. Its buffer still goes back to the
// pool, empty, when Deliver is done with it.
func TestLateResponseIsNotMerged(t *testing.T) {
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.Config{})
	n, err := NewNode(smallConfig(), 1, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	target := id.FromUint64(64, 0x40)
	// Two requests out, one answered in time: the record stays the
	// lookup's until the other one ends.
	l := n.newLookup(target, lookupNode)
	l.inflight, l.responded, l.finished = 2, 1, true
	for _, v := range []uint64{0x44, 0x48} {
		c := Contact{ID: id.FromUint64(64, v), Addr: simnet.Addr(v)}
		l.candidates = append(l.candidates, candidate{contact: c, prefix: c.ID.XorPrefix(target), state: stateInflight})
	}
	l.candidates[0].state = stateResponded
	before := append([]candidate(nil), l.candidates...)
	to := l.candidates[1].contact
	p := &rpc{node: n, id: 7, to: to, lookup: l}
	sim.Arm(&p.timeout, time.Second, p)
	n.pending = append(n.pending, p)
	buf := append(make([]Contact, 0, 4), Contact{ID: id.FromUint64(64, 0x41), Addr: 2}, Contact{ID: id.FromUint64(64, 0x42), Addr: 3})
	n.Deliver(to.Addr, &envelope{RPCID: 7, From: to, Kind: msgFindNode, IsResponse: true, Contacts: buf, rpc: p})
	if l.inflight != 1 || l.responded != 1 {
		t.Fatalf("inflight %d, responded %d after the late response; want 1 and 1", l.inflight, l.responded)
	}
	if len(l.candidates) != len(before) {
		t.Fatalf("%d candidates after the late response, want %d", len(l.candidates), len(before))
	}
	for i := range before {
		if l.candidates[i] != before[i] {
			t.Fatalf("candidate %d = %+v after the late response, want %+v", i, l.candidates[i], before[i])
		}
	}
	if b := n.pool.buffers; len(b) != 1 || len(b[0]) != 0 || &b[0][:1][0] != &buf[0] {
		t.Fatalf("the response's buffer did not come back to the pool empty: %d idle buffers", len(b))
	}
}
