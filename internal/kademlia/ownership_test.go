package kademlia

import (
	"slices"
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/simnet"
)

// The two rules of the pool (see pool), checked from outside: the responder
// takes a response buffer from the pool when it answers FIND_NODE or
// FIND_VALUE, and whoever ends the response's trip — the requester's
// Deliver or Dropped — gives it back. bufferAudit follows every buffer by
// the address of its backing array, and checkPool holds every record in
// the pool to being idle.

// bufferAudit taps the handlers of the nodes it watches. Buffers move only
// when a responder answers (a request delivery: it takes one, and gives it
// back at once if its response is lost as it is sent), when a requester
// handles a response (a response delivery: it gives one back), and when
// the network drops a response in flight to a departed node; check, run
// after every event, covers the last.
type bufferAudit struct {
	t    *testing.T
	net  *simnet.Network
	pool *pool
	// idle: the pool's buffers as of the last look, each with a copy of
	// its whole backing array then. out: response buffers in flight. The
	// slices keep the arrays alive, so an address never names another
	// buffer while the audit knows it.
	idle  map[*Contact]idleBuffer
	out   map[*Contact][]Contact
	drops uint64 // the network's lost and unroutable messages at the last check

	requests, taken, made, delivered, dropped, late int
}

func newBufferAudit(t *testing.T, net *simnet.Network) *bufferAudit {
	return &bufferAudit{t: t, net: net, idle: map[*Contact]idleBuffer{}, out: map[*Contact][]Contact{}}
}

type idleBuffer struct{ buf, contents []Contact }

type auditTap struct {
	audit *bufferAudit
	node  *Node
}

func (tap auditTap) Deliver(from simnet.Addr, payload any) {
	if env := payload.(*envelope); env.IsResponse {
		tap.audit.response(tap.node, from, env)
	} else {
		tap.audit.request(tap.node, from, env)
	}
}

// watch puts the audit between the network and a started node.
func (a *bufferAudit) watch(n *Node) {
	a.t.Helper()
	if a.pool == nil {
		a.pool = n.pool
	}
	if n.pool != a.pool {
		a.t.Fatalf("node %d does not share its network's pool", n.Addr())
	}
	a.net.Detach(n.Addr())
	if err := a.net.Attach(n.Addr(), auditTap{a, n}); err != nil {
		a.t.Fatal(err)
	}
}

func bufKey(buf []Contact) *Contact { return &buf[:1][0] }

// look takes the pool's buffers for the audit's idle set and returns those
// that left the pool and those that came into it since the last look. A
// buffer that stayed must read as it did, unless rewritten is set: a
// responder may then have taken it and given it back in between.
func (a *bufferAudit) look(rewritten bool) (left, came [][]Contact) {
	now := make(map[*Contact]idleBuffer, len(a.pool.buffers))
	for _, buf := range a.pool.buffers {
		k := bufKey(buf)
		if _, twice := now[k]; twice {
			a.t.Errorf("a buffer is in the pool twice")
		}
		if len(buf) != 0 {
			a.t.Errorf("a buffer in the pool holds %d contacts", len(buf))
		}
		full := buf[:cap(buf)]
		old, stayed := a.idle[k]
		switch {
		case !stayed:
			came = append(came, buf)
		case !rewritten && !slices.Equal(old.contents, full):
			a.t.Errorf("a buffer was written while it sat in the pool")
		case !rewritten:
			now[k] = old
			continue
		}
		now[k] = idleBuffer{buf, slices.Clone(full)}
	}
	for k, old := range a.idle {
		if _, ok := now[k]; !ok {
			left = append(left, old.buf)
		}
	}
	a.idle = now
	return left, came
}

// request runs a responder's answer. A request carries no buffer; the
// response leaves with one taken from the pool, or made when the pool had
// none (or grown from one too small for the responder's k).
func (a *bufferAudit) request(n *Node, from simnet.Addr, env *envelope) {
	a.requests++
	if cap(env.Contacts) != 0 {
		a.t.Errorf("request %d from %d carries a buffer", env.RPCID, from)
	}
	a.look(false)
	n.Deliver(from, env)
	if a.pooled(env) {
		// The response was lost as it was sent, and Dropped gave back the
		// buffer the responder took (or made, or grew from the one it took).
		left, came := a.look(true)
		if len(left) > len(came) || len(came) > 1 {
			a.t.Errorf("a response lost as it was sent moved %d buffers out of the pool and %d in", len(left), len(came))
		}
		if env.Kind == msgFindNode || env.Kind == msgFindValue && !env.Found {
			a.dropped++
			if len(came) == 0 {
				a.taken++
			} else {
				a.made++
			}
		}
		return
	}
	left, came := a.look(false)
	if len(came) != 0 {
		a.t.Errorf("answering request %d put %d buffers into the pool", env.RPCID, len(came))
	}
	if !env.IsResponse || cap(env.Contacts) == 0 {
		if len(left) != 0 {
			a.t.Errorf("request %d was answered without a buffer, but %d left the pool", env.RPCID, len(left))
		}
		return
	}
	buf := env.Contacts
	k := bufKey(buf)
	if _, ok := a.out[k]; ok {
		a.t.Errorf("the response to request %d leaves with a buffer that is out with another", env.RPCID)
	}
	a.out[k] = buf
	switch {
	case len(left) > 1:
		a.t.Errorf("answering request %d took %d buffers", env.RPCID, len(left))
	case len(left) == 1 && bufKey(left[0]) == k:
		a.taken++
	case len(left) == 1 && cap(left[0]) >= len(buf):
		a.t.Errorf("the response to request %d took a buffer from the pool and left with another", env.RPCID)
	case len(left) == 0 && len(a.idle) != 0:
		a.t.Errorf("the response to request %d made a buffer though the pool held %d", env.RPCID, len(a.idle))
	default:
		a.made++
	}
}

// response runs a requester's handling of a response, which must give its
// buffer back. The pending table by request id, as Deliver once looked it
// up, must name the record the envelope carries exactly when that record
// still matches it.
func (a *bufferAudit) response(n *Node, from simnet.Addr, env *envelope) {
	var waiting *rpc
	for _, p := range n.pending {
		if p.id == env.RPCID {
			waiting = p
		}
	}
	if matched := env.rpc.matches(n, env); matched != (waiting != nil) || matched && waiting != env.rpc {
		a.t.Errorf("response %d from %d: its record matches=%v, the pending table holds %p, the envelope carries %p",
			env.RPCID, from, matched, waiting, env.rpc)
	}
	if waiting == nil || waiting.to.Addr != from {
		a.late++
	}
	buf := env.Contacts
	if cap(buf) != 0 {
		if _, ok := a.out[bufKey(buf)]; !ok {
			a.t.Errorf("response %d from %d arrived with a buffer no responder sent out", env.RPCID, from)
		}
		delete(a.out, bufKey(buf))
	}
	a.look(false)
	n.Deliver(from, env)
	left, came := a.look(false)
	back := len(came) == 1 && bufKey(came[0]) == bufKey(buf)
	if len(left) != 0 || cap(buf) != 0 && !back || cap(buf) == 0 && len(came) != 0 {
		a.t.Errorf("handling response %d moved %d buffers out of the pool and %d in; its own came back: %v", env.RPCID, len(left), len(came), back)
	}
	if back {
		a.delivered++
	}
}

// pooled reports whether env is idle in the pool.
func (a *bufferAudit) pooled(env *envelope) bool {
	for e := a.pool.envelopes; e != nil; e = e.next {
		if e == env {
			return true
		}
	}
	return false
}

// check runs after every event. Outside the handlers it taps, a buffer
// only comes back from a response the network dropped in flight.
func (a *bufferAudit) check() {
	left, came := a.look(false)
	st := a.net.Stats()
	drops := st.Lost + st.NoRoute
	if len(left) != 0 || len(came) > 0 && drops == a.drops {
		a.t.Errorf("%d buffers left the pool and %d came back outside a handler, with no message dropped", len(left), len(came))
	}
	for _, buf := range came {
		if _, ok := a.out[bufKey(buf)]; !ok {
			a.t.Errorf("a buffer no responder sent out came back to the pool")
		}
		delete(a.out, bufKey(buf))
		a.dropped++
	}
	a.drops = drops
}

// checkPool holds every record in the pool of the nodes' network to being
// idle and there once: a lookup record reset, a request record with no
// lookup, no pending timer and in no pending table, an envelope with no
// contacts and no value. Every outstanding request must sit at its own
// slot of its own node's pending table with its timeout armed. It returns
// the depth of the pool's lookup records.
func checkPool(t *testing.T, nodes []*Node) int {
	t.Helper()
	pl := nodes[0].pool
	idle := map[any]bool{}
	once := func(r any) {
		if idle[r] {
			t.Fatalf("%T %p is in the pool twice", r, r)
		}
		idle[r] = true
	}
	depth := 0
	for l := pl.lookups; l != nil; l = l.next {
		once(l)
		depth++
		if l.node != nil || l.inflight != 0 || l.finished || len(l.candidates) != 0 || l.onComplete != nil || l.onValue != nil {
			t.Fatalf("lookup %p in the pool was not reset: %+v", l, l)
		}
	}
	for p := pl.rpcs; p != nil; p = p.next {
		once(p)
		if p.lookup != nil || p.timeout.Pending() {
			t.Fatalf("request record %p in the pool points at lookup %p, timer pending %v", p, p.lookup, p.timeout.Pending())
		}
	}
	for env := pl.envelopes; env != nil; env = env.next {
		once(env)
		if env.Contacts != nil || env.Value != nil {
			t.Fatalf("envelope %p in the pool holds %d contacts and %d value bytes", env, len(env.Contacts), len(env.Value))
		}
	}
	for _, n := range nodes {
		if n.pool != pl {
			t.Fatalf("node %d does not share its network's pool", n.Addr())
		}
		for i, p := range n.pending {
			if idle[p] || p.lookup != nil && idle[p.lookup] {
				t.Fatalf("request %d of node %d is in the pool, or points at a lookup there", p.id, n.Addr())
			}
			if p.slot != i || p.node != n || !p.timeout.Pending() {
				t.Fatalf("request %d of node %d sits at %d of its pending table with slot %d, owner %d, timer pending %v",
					p.id, n.Addr(), i, p.slot, p.node.Addr(), p.timeout.Pending())
			}
		}
	}
	return depth
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
	done := false
	var tick func()
	ticks := 0
	tick = func() {
		if done {
			return
		}
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
			for l := victim.pool.lookups; l != nil; l = l.next {
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

	sim.MustSchedule(90*time.Second, func() { done = true })
	deepest := 0
	step := func() {
		audit.check()
		deepest = max(deepest, checkPool(t, nodes))
		if t.Failed() {
			t.FailNow()
		}
	}
	for !done && sim.Step() {
		step()
	}
	var started, timeouts uint64
	for _, n := range nodes {
		started += n.Stats().LookupsStarted
		timeouts += n.Stats().Timeouts
	}
	// Every node leaves, and the messages still travelling are dropped at
	// their departed destinations: every buffer that went out is back.
	for _, n := range nodes {
		n.Leave()
	}
	for sim.Pending() > 0 && sim.Step() {
		step()
	}
	if len(audit.out) != 0 || audit.taken+audit.made != audit.delivered+audit.dropped {
		t.Errorf("%d buffers still out after every message ended; %d taken and %d made, %d given back by Deliver and %d by Dropped",
			len(audit.out), audit.taken, audit.made, audit.delivered, audit.dropped)
	}
	t.Logf("%d lookups started on the surviving nodes, lookup records at most %d deep in the pool; %d requests audited; buffers: %d taken, %d made, %d given back by Deliver, %d by Dropped; %d late responses, %d timeouts, %d lookups retired by a leave",
		started, deepest, audit.requests, audit.taken, audit.made, audit.delivered, audit.dropped, audit.late, timeouts, retired)
	if deepest == 0 || uint64(deepest) > started/10 {
		t.Errorf("lookup records at most %d deep in the pool over %d lookups: records are not being reused", deepest, started)
	}
	if audit.taken == 0 || audit.delivered == 0 || audit.late == 0 || audit.dropped == 0 || timeouts == 0 || retired == 0 {
		t.Errorf("the run did not exercise every path: %d taken, %d given back by Deliver, %d late, %d by Dropped, %d timeouts, %d retired by a leave",
			audit.taken, audit.delivered, audit.late, audit.dropped, timeouts, retired)
	}
}

// TestPooledRecordsServeAnyK: the nodes of one network need not agree on
// k. Responders of k = 3 and k = 12 take their buffers from the one pool,
// a k = 12 responder grows a three-contact buffer, the grown buffers come
// back, and every result is what it is on a twin network whose pool is
// emptied before each lookup, where every record and buffer is new.
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
					*src.pool = pool{}
					audit.idle = map[*Contact]idleBuffer{}
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
	// One lookup record served every lookup, and the pool holds a buffer
	// grown to the larger k.
	if depth := checkPool(t, nodes); depth != 1 {
		t.Fatalf("%d lookup records in the pool after strictly sequential lookups, want 1", depth)
	}
	grown := false
	for _, b := range nodes[0].pool.buffers {
		grown = grown || cap(b) >= 12
	}
	if !grown || audit.late != 0 || audit.taken == 0 || audit.delivered != audit.taken+audit.made || len(audit.out) != 0 {
		t.Fatalf("no buffer in the pool was grown to k = 12 (%d taken, %d made, %d given back, %d late)",
			audit.taken, audit.made, audit.delivered, audit.late)
	}
}

// TestForeignProtocolSlotIsLeftAlone: the network's Protocol slot is
// exported, so it may already hold somebody else's state. Nodes then keep a
// pool of their own and the slot stays as it was.
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
	if responded != 3 || net.Protocol != "not kademlia's" || nodes[0].pool == nodes[1].pool {
		t.Fatalf("responded=%d, slot=%v, pools shared=%v", responded, net.Protocol, nodes[0].pool == nodes[1].pool)
	}
	// The requester's own pool has its lookup record, request records and
	// envelopes back, and the buffers its three responses came back in.
	if a := nodes[0].pool; a.lookups == nil || a.rpcs == nil || a.envelopes == nil || len(a.buffers) != 3 {
		t.Fatalf("the requester's pool: lookup %p, request records %p, envelopes %p, %d buffers", a.lookups, a.rpcs, a.envelopes, len(a.buffers))
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
