package kademlia

import (
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/simnet"
)

// cluster spins up a network of n started nodes that have all joined via
// node 0 and lets it settle.
type cluster struct {
	sim   *eventsim.Simulator
	net   *simnet.Network
	nodes []*Node
}

func newCluster(t *testing.T, cfg Config, n int, seed int64) *cluster {
	t.Helper()
	sim := eventsim.New(seed)
	net := simnet.New(sim, simnet.Config{
		Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	c := &cluster{sim: sim, net: net}
	for i := 0; i < n; i++ {
		node, err := NewNode(cfg, simnet.Addr(i+1), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
	}
	// Stagger joins slightly so bootstrap contacts are attached.
	for i := 1; i < n; i++ {
		node := c.nodes[i]
		bootstrap := c.nodes[0].Contact()
		sim.MustSchedule(time.Duration(i)*time.Second, func() {
			if err := node.Join(bootstrap, nil); err != nil {
				t.Errorf("join: %v", err)
			}
		})
	}
	sim.RunUntil(sim.Now() + time.Duration(n+60)*time.Second)
	return c
}

func smallConfig() Config {
	return Config{Bits: 64, K: 5, Alpha: 3, StalenessLimit: 1, RefreshInterval: 10 * time.Minute}
}

func TestJoinPopulatesRoutingTables(t *testing.T) {
	c := newCluster(t, smallConfig(), 20, 1)
	for i, n := range c.nodes {
		if n.Table().Size() == 0 {
			t.Errorf("node %d has empty routing table", i)
		}
	}
	// The bootstrap node must have learned about joiners.
	if c.nodes[0].Table().Size() < 5 {
		t.Errorf("bootstrap knows only %d contacts", c.nodes[0].Table().Size())
	}
}

func TestLookupFindsClosestNodes(t *testing.T) {
	c := newCluster(t, smallConfig(), 30, 2)
	// Lookup from an arbitrary node toward another node's exact id.
	target := c.nodes[17].ID()
	var got []Contact
	c.nodes[3].Lookup(target, func(closest []Contact, responded int) {
		got = closest
	})
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	if len(got) == 0 {
		t.Fatal("lookup returned nothing")
	}
	// The target itself must be the closest result: it exists and
	// distance 0 beats everything.
	if !got[0].ID.Equal(target) {
		t.Fatalf("closest = %v, want target %v", got[0].ID, target)
	}
}

func TestStoreAndGet(t *testing.T) {
	c := newCluster(t, smallConfig(), 25, 3)
	key := id.FromUint64(64, 0xDEADBEEF)
	value := []byte("cps sensor state")
	var stored int
	c.nodes[2].Store(key, value, func(sent int) { stored = sent })
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	if stored == 0 {
		t.Fatal("store dispatched to zero nodes")
	}
	holders := 0
	for _, n := range c.nodes {
		if n.HasValue(key) {
			holders++
		}
	}
	if holders == 0 {
		t.Fatal("no node holds the value")
	}
	var got []byte
	var ok bool
	done := false
	c.nodes[19].Get(key, func(v []byte, found bool) {
		got, ok, done = v, found, true
	})
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	if !done {
		t.Fatal("get never completed")
	}
	if !ok || string(got) != string(value) {
		t.Fatalf("get = %q, %v", got, ok)
	}
}

func TestGetMissingKey(t *testing.T) {
	c := newCluster(t, smallConfig(), 10, 4)
	var ok, done bool
	c.nodes[1].Get(id.FromUint64(64, 0xABCDEF), func(_ []byte, found bool) {
		ok, done = found, true
	})
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	if !done {
		t.Fatal("get never completed")
	}
	if ok {
		t.Fatal("found a value that was never stored")
	}
}

func TestLeaveStopsTraffic(t *testing.T) {
	c := newCluster(t, smallConfig(), 10, 5)
	n := c.nodes[4]
	n.Leave()
	if n.Running() {
		t.Fatal("node still running after Leave")
	}
	if c.net.Attached(n.Addr()) {
		t.Fatal("node still attached after Leave")
	}
	// Another Leave is a harmless no-op.
	n.Leave()
	// Lookups on a departed node complete immediately and empty.
	called := false
	n.Lookup(id.FromUint64(64, 1), func(cs []Contact, _ int) {
		called = true
		if len(cs) != 0 {
			t.Errorf("departed node returned contacts: %v", cs)
		}
	})
	if !called {
		t.Fatal("lookup callback not invoked synchronously on dead node")
	}
}

func TestTimeoutEvictsDepartedContact(t *testing.T) {
	cfg := smallConfig() // s = 1: a single failure evicts
	c := newCluster(t, cfg, 12, 6)
	victim := c.nodes[6]
	victimID := victim.ID()
	// Find a node that knows the victim.
	var witness *Node
	for _, n := range c.nodes {
		if n != victim && n.Table().Contains(victimID) {
			witness = n
			break
		}
	}
	if witness == nil {
		t.Fatal("no node knows the victim")
	}
	victim.Leave()
	// Trigger communication: lookup toward the victim's id forces the
	// witness (and others) to query it and time out.
	witness.Lookup(victimID, nil)
	c.sim.RunUntil(c.sim.Now() + time.Minute)
	// With s=1 one timeout marks the contact stale; it is evicted as soon
	// as a replacement exists and retained (stale) otherwise.
	if witness.Table().Contains(victimID) && !witness.Table().IsStale(victimID) {
		t.Fatal("departed contact neither evicted nor stale after timeout with s=1")
	}
	if witness.Stats().Timeouts == 0 {
		t.Fatal("no timeouts recorded")
	}
}

func TestStalenessLimitDelaysEviction(t *testing.T) {
	// With s=5 a single failed exchange must NOT evict.
	cfg := smallConfig()
	cfg.StalenessLimit = 5
	c := newCluster(t, cfg, 12, 7)
	victim := c.nodes[6]
	victimID := victim.ID()
	var witness *Node
	for _, n := range c.nodes {
		if n != victim && n.Table().Contains(victimID) {
			witness = n
			break
		}
	}
	if witness == nil {
		t.Fatal("no node knows the victim")
	}
	victim.Leave()
	witness.Lookup(victimID, nil)
	c.sim.RunUntil(c.sim.Now() + 30*time.Second)
	if !witness.Table().Contains(victimID) {
		t.Fatal("contact evicted before s failures with s=5")
	}
	if witness.Table().IsStale(victimID) {
		t.Fatal("contact marked stale before s failures with s=5")
	}
}

func TestBucketRefreshDiscoversContacts(t *testing.T) {
	// Node A only knows the bootstrap; after a refresh cycle it should
	// know considerably more.
	cfg := smallConfig()
	cfg.RefreshInterval = 5 * time.Minute
	c := newCluster(t, cfg, 30, 8)
	sizes := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		sizes[i] = n.Table().Size()
	}
	c.sim.RunUntil(c.sim.Now() + 15*time.Minute)
	grew := 0
	for i, n := range c.nodes {
		if n.Table().Size() > sizes[i] {
			grew++
		}
		if n.Stats().Refreshes == 0 {
			t.Fatalf("node %d never refreshed", i)
		}
	}
	if grew == 0 {
		t.Error("no routing table grew after refresh cycles")
	}
}

func TestMessageLossCausesTimeouts(t *testing.T) {
	sim := eventsim.New(9)
	net := simnet.New(sim, simnet.Config{
		Latency: simnet.ConstantLatency{D: 20 * time.Millisecond},
		Loss:    simnet.UniformLoss{P: 0.5},
	})
	cfg := smallConfig()
	var nodes []*Node
	for i := 0; i < 15; i++ {
		n, err := NewNode(cfg, simnet.Addr(i+1), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for i := 1; i < len(nodes); i++ {
		node := nodes[i]
		sim.MustSchedule(time.Duration(i)*time.Second, func() {
			_ = node.Join(nodes[0].Contact(), nil)
		})
	}
	sim.RunUntil(10 * time.Minute)
	var timeouts uint64
	for _, n := range nodes {
		timeouts += n.Stats().Timeouts
	}
	if timeouts == 0 {
		t.Fatal("50% loss should cause timeouts")
	}
}

func TestJoinErrors(t *testing.T) {
	sim := eventsim.New(10)
	net := simnet.New(sim, simnet.Config{})
	n, err := NewNode(smallConfig(), 1, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Join(Contact{ID: id.FromUint64(64, 5), Addr: 5}, nil); err != ErrNotRunning {
		t.Fatalf("join before start: %v, want ErrNotRunning", err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Join(n.Contact(), nil); err == nil {
		t.Fatal("self-bootstrap should fail")
	}
	if err := n.Start(); err == nil {
		t.Fatal("double start should fail")
	}
}

func TestNewNodeValidation(t *testing.T) {
	sim := eventsim.New(11)
	net := simnet.New(sim, simnet.Config{})
	if _, err := NewNode(Config{Bits: 7}, 1, net); err == nil {
		t.Error("invalid bits should fail")
	}
	if _, err := NewNode(Config{K: -1}, 1, net); err == nil {
		t.Error("negative k should fail")
	}
}

func TestAddrIDDeterministic(t *testing.T) {
	a := AddrID(160, 42)
	b := AddrID(160, 42)
	c := AddrID(160, 43)
	if !a.Equal(b) {
		t.Error("AddrID not deterministic")
	}
	if a.Equal(c) {
		t.Error("distinct addresses collide")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Bits != 160 || cfg.K != 20 || cfg.Alpha != 3 || cfg.StalenessLimit != 5 {
		t.Fatalf("defaults %+v do not match the paper's b=160, k=20, alpha=3, s=5", cfg)
	}
	if cfg.RefreshInterval != 60*time.Minute {
		t.Fatalf("refresh interval %v, want 60m", cfg.RefreshInterval)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestsRefreshSenderInTable(t *testing.T) {
	// Receiving a request must insert the sender into the receiver's
	// table ("nodes attempt to add each other").
	sim := eventsim.New(12)
	net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency{D: 10 * time.Millisecond}})
	cfg := smallConfig()
	a, _ := NewNode(cfg, 1, net)
	b, _ := NewNode(cfg, 2, net)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	bc := b.Contact()
	a.observe(&bc, false)
	a.Lookup(a.ID(), nil)
	sim.RunUntil(time.Minute)
	if !b.Table().Contains(a.ID()) {
		t.Fatal("receiver did not learn the requester")
	}
	if !a.Table().Contains(b.ID()) {
		t.Fatal("requester did not retain the responder")
	}
}

// TestLateResponseToRecycledRecordIsDropped: a request times out, its
// record goes back to the pool and carries the node's next request
// under a new id; the first request's response, which still points at that
// record, then arrives. It must be dropped as late: no response counted,
// no timeout charged, the newer request still waiting on its own answer.
func TestLateResponseToRecycledRecordIsDropped(t *testing.T) {
	sim := eventsim.New(3)
	net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency{D: 80 * time.Millisecond}})
	cfg := Config{Bits: 64, K: 5, RPCTimeout: 100 * time.Millisecond, RefreshInterval: 1000 * time.Hour}
	a, _ := NewNode(cfg, 1, net)
	b, _ := NewNode(cfg, 2, net)
	for _, n := range []*Node{a, b} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	a.sendRequest(b.Contact(), msgPing, id.ID{}, nil, nil) // answered at 160 ms, times out at 100 ms
	first := a.pending[0]
	firstID := first.id
	sim.RunUntil(120 * time.Millisecond)
	if st := a.Stats(); st.Timeouts != 1 || len(a.pending) != 0 {
		t.Fatalf("after the timeout: %+v, %d pending", st, len(a.pending))
	}
	a.sendRequest(b.Contact(), msgPing, id.ID{}, nil, nil) // pending until 220 ms
	if len(a.pending) != 1 || a.pending[0] != first || first.id == firstID {
		t.Fatalf("the second request did not reuse the first one's record under a new id")
	}
	sim.RunUntil(170 * time.Millisecond) // the first response has landed
	if got := net.Stats().Delivered; got != 2 {
		t.Fatalf("%d messages delivered by 170 ms, want the first request and its late response", got)
	}
	if st := a.Stats(); st.ResponsesOK != 0 || st.Timeouts != 1 {
		t.Fatalf("the late response changed the counters: %+v", st)
	}
	if len(a.pending) != 1 || a.pending[0] != first || !first.timeout.Pending() {
		t.Fatal("the late response released the newer request")
	}
	sim.RunUntil(time.Second) // the second request times out too, then its response is late
	if st := a.Stats(); st.ResponsesOK != 0 || st.Timeouts != 2 || len(a.pending) != 0 {
		t.Fatalf("at the end: %+v, %d pending", st, len(a.pending))
	}
}
