package kademlia

import (
	"fmt"
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/simnet"
)

// The ownership rules of the lookup pool (see lookup), checked from
// outside: bufferAudit follows every response buffer by the address of its
// backing array through the envelopes the nodes receive, and checkPool
// holds the free list to the request tables after every event.

// bufferAudit taps the handlers of the nodes it watches. A responder is
// about to write into the buffer of every request it is handed, so that is
// where the rules are checked: the buffer must not be parked on any lookup
// or on a pending request, must not be out with another request, and must
// not be one a timed-out request took with it. The network drops messages
// without a handler seeing them, so reclaim, run after every event, follows
// a dropped message's buffer to the request it is parked on.
type bufferAudit struct {
	t     *testing.T
	net   *simnet.Network
	nodes map[simnet.Addr]*Node
	// out: buffers handed to a responder whose response has not come back.
	// The slices keep the arrays alive, so an address is never reused for
	// another buffer while the audit still knows it.
	out map[*Contact][]Contact
	// abandoned: buffers whose response found its request timed out.
	abandoned map[*Contact][]Contact
	// reclaimed: buffers of dropped messages, from the moment reclaim finds
	// them parked on their request until a request carries them out again.
	reclaimed map[*Contact][]Contact

	requests, returned, late, dropped int
}

func newBufferAudit(t *testing.T, net *simnet.Network) *bufferAudit {
	return &bufferAudit{
		t: t, net: net,
		nodes:     map[simnet.Addr]*Node{},
		out:       map[*Contact][]Contact{},
		abandoned: map[*Contact][]Contact{},
		reclaimed: map[*Contact][]Contact{},
	}
}

type auditTap struct {
	audit *bufferAudit
	node  *Node
}

func (tap auditTap) Deliver(from simnet.Addr, payload any) {
	tap.audit.observe(tap.node, from, payload.(*envelope))
	tap.node.Deliver(from, payload)
}

// watch puts the audit between the network and a started node.
func (a *bufferAudit) watch(n *Node) {
	a.t.Helper()
	a.nodes[n.Addr()] = n
	a.net.Detach(n.Addr())
	if err := a.net.Attach(n.Addr(), auditTap{a, n}); err != nil {
		a.t.Fatal(err)
	}
}

func (a *bufferAudit) observe(receiver *Node, from simnet.Addr, env *envelope) {
	if cap(env.Contacts) == 0 || !receiver.running {
		return
	}
	buf := env.Contacts[:1]
	key := &buf[0]
	if env.IsResponse {
		delete(a.out, key)
		// The pending table by request id, as Deliver once looked it up,
		// must name the record the envelope carries exactly when that
		// record still matches it.
		var waiting *rpc
		for _, p := range receiver.pending {
			if p.id == env.RPCID {
				waiting = p
			}
		}
		if matched := env.rpc.matches(receiver, env); matched != (waiting != nil) || matched && waiting != env.rpc {
			a.t.Errorf("response %d from %d: its record matches=%v, the pending table holds %p, the envelope carries %p",
				env.RPCID, from, matched, waiting, env.rpc)
		}
		if waiting != nil && waiting.to.Addr == from {
			a.returned++ // back to the lookup, free to go out again
		} else {
			a.late++
			a.abandoned[key] = buf
		}
		return
	}
	a.requests++
	if len(env.Contacts) != 0 {
		a.t.Errorf("request %d from %d arrived with %d contacts already in its buffer", env.RPCID, from, len(env.Contacts))
	}
	if _, ok := a.out[key]; ok {
		a.t.Errorf("request %d from %d carries a buffer that is still out with another request", env.RPCID, from)
	}
	if _, ok := a.abandoned[key]; ok {
		a.t.Errorf("request %d from %d carries a buffer a timed-out request took with it", env.RPCID, from)
	}
	if owner := a.parkedOn(key); owner != "" {
		a.t.Errorf("request %d from %d carries a buffer parked on %s", env.RPCID, from, owner)
	}
	delete(a.reclaimed, key)
	a.out[key] = buf
}

// reclaim takes the buffers of dropped messages out of the out set. A
// dropped request or response parks its buffer on the request while that
// is pending, and the request's timeout hands it back to the lookup; the
// buffer may then go out again. Such a buffer must come back exactly once
// and never be one a timed-out request took with it.
func (a *bufferAudit) reclaim() {
	for _, n := range a.nodes {
		for _, p := range n.pending {
			if cap(p.buf) == 0 {
				continue
			}
			buf := p.buf[:1]
			key := &buf[0]
			if _, ok := a.reclaimed[key]; ok {
				continue
			}
			if _, ok := a.abandoned[key]; ok {
				a.t.Errorf("request %d of node %d got back a buffer a timed-out request took with it", p.id, n.Addr())
			}
			if p.lookup == nil {
				a.t.Errorf("request %d of node %d holds a buffer but no lookup to return it to", p.id, n.Addr())
			}
			delete(a.out, key)
			a.reclaimed[key] = buf
			a.dropped++
		}
	}
}

// parkedOn names the holder of the buffer while it is not out: a lookup
// record, idle or running, with the buffer among its idle ones, or a
// pending request it is parked on. It returns "" if nobody holds it.
func (a *bufferAudit) parkedOn(key *Contact) string {
	holds := func(l *lookup) bool {
		for _, b := range l.buffers {
			if &b[:1][0] == key {
				return true
			}
		}
		return false
	}
	for _, n := range a.nodes {
		for l := n.lookups.free; l != nil; l = l.next {
			if holds(l) {
				return fmt.Sprintf("idle lookup %p", l)
			}
		}
		for _, p := range n.pending {
			if p.lookup != nil && holds(p.lookup) {
				return fmt.Sprintf("lookup %p", p.lookup)
			}
			if cap(p.buf) > 0 && &p.buf[:1][0] == key {
				return fmt.Sprintf("pending request %d of node %d", p.id, n.Addr())
			}
		}
	}
	return ""
}

// checkPool holds the free list of the nodes' network to its rules: every
// record on it is reset, none is there twice, and no outstanding request of
// any node points at one. Every outstanding request must sit at its own
// slot of its own node's pending table with its timeout armed. It returns
// the list's depth.
func checkPool(t *testing.T, nodes []*Node) int {
	t.Helper()
	idle := map[*lookup]bool{}
	for l := nodes[0].lookups.free; l != nil; l = l.next {
		if idle[l] {
			t.Fatalf("lookup %p is on the free list twice", l)
		}
		idle[l] = true
		if l.node != nil || l.inflight != 0 || l.finished || len(l.candidates) != 0 || l.onComplete != nil || l.onValue != nil {
			t.Fatalf("lookup %p on the free list was not reset: %+v", l, l)
		}
	}
	for _, n := range nodes {
		if n.lookups != nodes[0].lookups {
			t.Fatalf("node %d does not share its network's free list", n.Addr())
		}
		for i, p := range n.pending {
			if p.lookup != nil && idle[p.lookup] {
				t.Fatalf("request %d of node %d points at recycled lookup %p", p.id, n.Addr(), p.lookup)
			}
			if p.slot != i || p.node != n || !p.timeout.Pending() {
				t.Fatalf("request %d of node %d sits at %d of its pending table with slot %d, owner %d, timer pending %v",
					p.id, n.Addr(), i, p.slot, p.node.Addr(), p.timeout.Pending())
			}
		}
	}
	return len(idle)
}

// TestLookupRecordsRecycleOnlyWhenIdle runs lookups, value lookups and
// stores over a lossy network whose nodes come and go with requests in
// flight, and checks the pool and every buffer after every single event.
// A node that leaves hands the lookups it cancels back to the pool at once,
// and none of them reports.
func TestLookupRecordsRecycleOnlyWhenIdle(t *testing.T) {
	sim := eventsim.New(17)
	net := simnet.New(sim, simnet.Config{
		Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Loss:    simnet.UniformLoss{P: 0.15},
	})
	// A timeout inside the latency range: some responses are merely late.
	cfg := Config{Bits: 64, K: 4, Alpha: 3, StalenessLimit: 1, RefreshInterval: 2 * time.Minute, RPCTimeout: 150 * time.Millisecond}
	audit := newBufferAudit(t, net)
	retired := 0
	var nodes []*Node
	nextAddr := simnet.Addr(1)
	spawn := func() {
		n, err := NewNode(cfg, nextAddr, net)
		if err != nil {
			t.Fatal(err)
		}
		nextAddr++
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		audit.watch(n)
		if len(nodes) > 0 {
			if err := n.Join(nodes[sim.Rand().Intn(len(nodes))].Contact(), nil); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	for i := 0; i < 14; i++ {
		spawn()
	}
	// Every 200 ms one node starts an operation; every 3 s one leaves in
	// the middle of whatever it has in flight and a newcomer joins.
	var tick func()
	ticks := 0
	tick = func() {
		ticks++
		r := sim.Rand()
		n := nodes[r.Intn(len(nodes))]
		key := id.FromUint64(64, uint64(r.Intn(40)))
		switch ticks % 3 {
		case 0:
			n.Lookup(key, func([]Contact, int) {})
		case 1:
			n.Get(key, func([]byte, bool) {})
		default:
			n.Store(key, []byte("v"), nil)
		}
		if ticks%15 == 0 {
			i := r.Intn(len(nodes))
			victim := nodes[i]
			victim.Lookup(id.FromUint64(64, uint64(ticks)), func([]Contact, int) {
				t.Errorf("a lookup of node %d reported though its node left in the middle of it", victim.Addr())
			})
			cut := map[*lookup]bool{}
			for _, p := range victim.pending {
				if p.lookup != nil {
					cut[p.lookup] = true
				}
			}
			victim.Leave()
			for l := victim.lookups.free; l != nil; l = l.next {
				if cut[l] {
					delete(cut, l)
					retired++
				}
			}
			for l := range cut {
				t.Errorf("lookup %p of node %d is not back in the pool after its node left", l, victim.Addr())
			}
			nodes = append(nodes[:i], nodes[i+1:]...)
			spawn()
		}
		sim.MustSchedule(200*time.Millisecond, tick)
	}
	sim.MustSchedule(time.Second, tick)

	done := false
	sim.MustSchedule(90*time.Second, func() { done = true })
	deepest := 0
	for !done && sim.Step() {
		audit.reclaim()
		deepest = max(deepest, checkPool(t, nodes))
		if t.Failed() {
			t.FailNow()
		}
	}
	var started, timeouts uint64
	for _, n := range nodes {
		started += n.Stats().LookupsStarted
		timeouts += n.Stats().Timeouts
	}
	t.Logf("%d lookups started on the surviving nodes, free list at most %d deep; %d requests audited, %d buffers returned, %d late, %d reclaimed from drops; %d timeouts; %d lookups retired by a leave",
		started, deepest, audit.requests, audit.returned, audit.late, audit.dropped, timeouts, retired)
	if deepest == 0 || uint64(deepest) > started/10 {
		t.Errorf("free list at most %d deep over %d lookups: records are not being reused", deepest, started)
	}
	if audit.returned == 0 || audit.late == 0 || audit.dropped == 0 || timeouts == 0 || retired == 0 {
		t.Errorf("the run did not exercise every path: %d returned, %d late, %d reclaimed from drops, %d timeouts, %d retired by a leave",
			audit.returned, audit.late, audit.dropped, timeouts, retired)
	}
}

// TestPooledRecordsServeAnyK: the nodes of one network need not agree on
// k. A record that last served a k = 3 lookup carries three-contact
// buffers into a k = 12 one; responders grow them, the grown buffers come
// back, and every result is what it is on a twin network whose free list
// is emptied before each lookup, where every record and buffer is new.
func TestPooledRecordsServeAnyK(t *testing.T) {
	run := func(pooled bool) (results [][]Contact, nodes []*Node, audit *bufferAudit) {
		sim := eventsim.New(3)
		net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency{D: 20 * time.Millisecond}})
		audit = newBufferAudit(t, net)
		for i := 0; i < 16; i++ {
			cfg := Config{Bits: 160, K: 3, RefreshInterval: 1000 * time.Hour}
			if i%2 == 1 {
				cfg.K = 12
			}
			n, err := NewNode(cfg, simnet.Addr(i+1), net)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			audit.watch(n)
			for _, other := range nodes {
				sight(n.Table(), other.Contact())
				sight(other.Table(), n.Contact())
			}
			nodes = append(nodes, n)
		}
		for round := 0; round < 6; round++ {
			target := id.FromUint64(160, uint64(1000+round))
			for _, src := range nodes[:2] { // a k = 3 node, then a k = 12 one
				if !pooled {
					src.lookups.free = nil
				}
				src.Lookup(target, func(closest []Contact, _ int) { results = append(results, closest) })
				sim.RunUntil(sim.Now() + time.Minute)
				checkPool(t, nodes)
			}
		}
		return results, nodes, audit
	}
	got, nodes, audit := run(true)
	want, _, _ := run(false)
	if len(got) != 12 || len(want) != 12 {
		t.Fatalf("%d and %d lookups completed, want 12", len(got), len(want))
	}
	for i := range want {
		if err := sameContacts(got[i], want[i]); err != nil {
			t.Fatalf("lookup %d (k=%d): %v", i, nodes[i%2].cfg.K, err)
		}
		if k := nodes[i%2].cfg.K; len(got[i]) != k {
			t.Fatalf("lookup %d returned %d contacts, want k = %d", i, len(got[i]), k)
		}
	}
	// One record served every lookup, and it has seen both sizes.
	if depth := checkPool(t, nodes); depth != 1 {
		t.Fatalf("free list %d deep after strictly sequential lookups, want 1", depth)
	}
	grown := false
	for _, b := range nodes[0].lookups.free.buffers {
		grown = grown || cap(b) >= 12
	}
	if !grown || audit.late != 0 || audit.returned == 0 {
		t.Fatalf("no buffer of the shared record was grown to k = 12 (%d returned, %d late)", audit.returned, audit.late)
	}
}

// TestForeignProtocolSlotIsLeftAlone: the network's Protocol slot is
// exported, so it may already hold somebody else's state. Nodes then keep a
// free list of their own and the slot stays as it was.
func TestForeignProtocolSlotIsLeftAlone(t *testing.T) {
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.Config{})
	net.Protocol = "not kademlia's"
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n, err := NewNode(smallConfig(), simnet.Addr(i+1), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		for _, other := range nodes {
			sight(n.Table(), other.Contact())
			sight(other.Table(), n.Contact())
		}
		nodes = append(nodes, n)
	}
	responded := 0
	nodes[0].Lookup(id.FromUint64(64, 9), func(_ []Contact, r int) { responded = r })
	sim.RunUntil(time.Minute)
	if responded != 3 || net.Protocol != "not kademlia's" || nodes[0].lookups == nodes[1].lookups {
		t.Fatalf("responded=%d, slot=%v, lists shared=%v", responded, net.Protocol, nodes[0].lookups == nodes[1].lookups)
	}
}

// TestStoredValuesAreSharedAndNeverWritten: a STORE keeps the sender's
// value slice and a FIND_VALUE hit answers with the stored slice itself,
// so one immutable slice can serve every store of a run (the traffic
// generator's data object does). Over a lossy network whose nodes come and
// go, two values are stored under disjoint key sets and read back. After
// every event each node's stored value must be the very slice its key was
// stored with — same backing array, same length — both values' bytes must
// be what they were, and every hit must hand its caller that slice.
func TestStoredValuesAreSharedAndNeverWritten(t *testing.T) {
	sim := eventsim.New(5)
	net := simnet.New(sim, simnet.Config{
		Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Loss:    simnet.UniformLoss{P: 0.1},
	})
	cfg := Config{Bits: 64, K: 4, Alpha: 3, StalenessLimit: 1, RefreshInterval: 2 * time.Minute, RPCTimeout: 150 * time.Millisecond}
	values := [2][]byte{[]byte("stored under even keys"), []byte("odd")}
	pristine := [2]string{string(values[0]), string(values[1])}
	parity := map[id.ID]int{}
	for k := 0; k < 40; k++ {
		parity[id.FromUint64(64, uint64(k))] = k % 2
	}
	isValue := func(v []byte, p int) bool {
		w := values[p]
		return len(v) == len(w) && &v[0] == &w[0]
	}
	var nodes []*Node
	nextAddr := simnet.Addr(1)
	spawn := func() {
		n, err := NewNode(cfg, nextAddr, net)
		if err != nil {
			t.Fatal(err)
		}
		nextAddr++
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		if len(nodes) > 0 {
			if err := n.Join(nodes[sim.Rand().Intn(len(nodes))].Contact(), nil); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	for i := 0; i < 12; i++ {
		spawn()
	}
	hits := 0
	var tick func()
	ticks := 0
	tick = func() {
		ticks++
		r := sim.Rand()
		n := nodes[r.Intn(len(nodes))]
		k := r.Intn(40)
		key := id.FromUint64(64, uint64(k))
		if ticks%2 == 0 {
			n.Store(key, values[k%2], nil)
		} else {
			n.Get(key, func(v []byte, ok bool) {
				if !ok {
					return
				}
				hits++
				if !isValue(v, k%2) {
					t.Errorf("a hit on key %d answered %q, not the slice stored under it", k, v)
				}
			})
		}
		if ticks%15 == 0 {
			i := r.Intn(len(nodes))
			nodes[i].Leave()
			nodes = append(nodes[:i], nodes[i+1:]...)
			spawn()
		}
		sim.MustSchedule(200*time.Millisecond, tick)
	}
	sim.MustSchedule(time.Second, tick)

	done := false
	sim.MustSchedule(60*time.Second, func() { done = true })
	stored := 0
	for !done && sim.Step() {
		for p := range values {
			if string(values[p]) != pristine[p] {
				t.Fatalf("value %d was written: %q, was %q", p, values[p], pristine[p])
			}
		}
		stored = 0
		for _, n := range nodes {
			for key, v := range n.storage {
				stored++
				if !isValue(v, parity[key]) {
					t.Fatalf("node %d stores %q under %s, not the slice the key was stored with", n.Addr(), v, key)
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("%d values held at the end, %d hits", stored, hits)
	if stored == 0 || hits == 0 {
		t.Fatalf("the run did not exercise both paths: %d values held, %d hits", stored, hits)
	}
}
