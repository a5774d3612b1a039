package kademlia

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/simnet"
)

// closestOracle is the implementation AppendClosest replaced, kept only as
// the reference it is tested against: collect every contact, sort the lot
// by full XOR distance, drop the excluded one, keep count.
func closestOracle(rt *RoutingTable, target id.ID, count int, exclude id.ID) []Contact {
	all := rt.Contacts()
	sort.Slice(all, func(i, j int) bool {
		return all[i].ID.CloserTo(target, all[j].ID)
	})
	out := []Contact{}
	for _, c := range all {
		if len(out) >= count {
			break
		}
		if !c.ID.Equal(exclude) {
			out = append(out, c)
		}
	}
	return out
}

// randomTable builds a table by the operations a running node applies to
// it — sightings, failures with and without replacements, removals — so
// that buckets fill, empty and refill and the occupancy index has to keep
// up. Every fourth table is packed with identifiers that share their top
// 64 bits, which land in one bucket and tie on the distance prefix.
func randomTable(rng *rand.Rand, bits, k int, crowded bool) *RoutingTable {
	self := id.Random(bits, rng)
	rt := NewRoutingTable(self, Config{Bits: bits, K: k, StalenessLimit: 1 + rng.Intn(2)})
	var known []id.ID
	draw := func() id.ID { return id.Random(bits, rng) }
	if crowded && bits > 64 {
		base := id.Random(bits, rng).Bytes()
		draw = func() id.ID {
			b := append([]byte(nil), base...)
			for i := 8; i < len(b); i++ {
				b[i] = byte(rng.Intn(256))
			}
			return id.MustNew(bits, b)
		}
	}
	for op := rng.Intn(400); op > 0; op-- {
		switch r := rng.Intn(10); {
		case r < 6 || len(known) == 0:
			c := Contact{ID: draw(), Addr: simnet.Addr(rng.Uint64())}
			rt.Observe(&c, false)
			known = append(known, c.ID)
		case r < 7:
			rt.Observe(&Contact{ID: known[rng.Intn(len(known))], Addr: simnet.Addr(rng.Uint64())}, false)
		case r < 8:
			rt.RecordFailure(known[rng.Intn(len(known))])
		case r < 9:
			rt.Observe(&Contact{ID: known[rng.Intn(len(known))], Addr: simnet.Addr(rng.Uint64())}, true)
		default:
			// A departure: failures up to the staleness limit evict the
			// contact for a replacement, or leave it stale for the next
			// newcomer to its bucket to take its place.
			gone := known[rng.Intn(len(known))]
			for i := 0; i < rt.cfg.StalenessLimit; i++ {
				rt.RecordFailure(gone)
			}
		}
	}
	return rt
}

func TestClosestMatchesCollectAndSortOracle(t *testing.T) {
	for _, bits := range []int{8, 80, 160, 256} {
		bits := bits
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(bits)))
			for trial := 0; trial < 150; trial++ {
				k := []int{1, 3, 5, 20}[rng.Intn(4)]
				rt := randomTable(rng, bits, k, trial%4 == 3)
				checkOccupancy(t, rt)
				contacts := rt.Contacts()

				targets := []id.ID{rt.Self(), id.Random(bits, rng), id.Random(bits, rng)}
				excludes := []id.ID{{}, id.Random(bits, rng)}
				if len(contacts) > 0 {
					present := contacts[rng.Intn(len(contacts))].ID
					// A contact itself, its last-bit neighbour (same bucket,
					// distance 1 from it) and the owner's own neighbour.
					flip := present.Bytes()
					flip[len(flip)-1] ^= 1
					targets = append(targets, present, id.MustNew(bits, flip))
					excludes = append(excludes, present, contacts[rng.Intn(len(contacts))].ID)
				}
				for _, target := range targets {
					for _, count := range []int{-1, 0, 1, k, k + 1, rt.Size(), rt.Size() + 5} {
						for _, exclude := range excludes {
							want := closestOracle(rt, target, count, exclude)
							got := rt.AppendClosest(nil, target, count, exclude)
							if err := sameContacts(got, want); err != nil {
								t.Fatalf("trial %d k=%d size=%d target=%s count=%d exclude=%s: %v",
									trial, k, rt.Size(), target, count, exclude, err)
							}
						}
					}
					// Closest is AppendClosest with nobody excluded, and an
					// append leaves what dst already held alone.
					if err := sameContacts(rt.Closest(target, k), closestOracle(rt, target, k, id.ID{})); err != nil {
						t.Fatalf("trial %d Closest: %v", trial, err)
					}
					prefix := []Contact{{Addr: 42}}
					got := rt.AppendClosest(prefix, target, k, id.ID{})
					if got[0].Addr != 42 {
						t.Fatalf("trial %d: AppendClosest overwrote dst", trial)
					}
					if err := sameContacts(got[1:], closestOracle(rt, target, k, id.ID{})); err != nil {
						t.Fatalf("trial %d append after prefix: %v", trial, err)
					}
				}
			}
		})
	}
}

func sameContacts(got, want []Contact) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d contacts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkOccupancy holds the occupancy index to the buckets it summarises.
func checkOccupancy(t *testing.T, rt *RoutingTable) {
	t.Helper()
	top := rt.BucketCount() - 1
	for i := 0; i <= top; i++ {
		c := top - i
		bit := rt.occupied[c/64]>>(63-c%64)&1 == 1
		if bit != (rt.BucketLen(i) > 0) {
			t.Fatalf("bucket %d holds %d contacts but its occupancy bit is %v", i, rt.BucketLen(i), bit)
		}
	}
}

// TestClosestMixedBitsPanics: like every distance function, the closest
// walk refuses a target from another identifier space, table empty or not.
func TestClosestMixedBitsPanics(t *testing.T) {
	rt := NewRoutingTable(id.FromUint64(64, 1), testConfig())
	defer func() {
		if recover() == nil {
			t.Error("Closest with a target of another bit-length should panic")
		}
	}()
	rt.Closest(id.FromUint64(80, 2), 3)
}

func TestClosestIntoCallerBufferAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	self := id.Random(160, rng)
	rt := NewRoutingTable(self, Config{K: 20})
	for i := 0; i < 500; i++ {
		rt.Observe(&Contact{ID: id.Random(160, rng), Addr: simnet.Addr(i + 1)}, false)
	}
	requester := rt.Contacts()[3].ID
	targets := make([]id.ID, 64)
	for i := range targets {
		targets[i] = id.Random(160, rng)
	}
	buf := make([]Contact, 0, 20)
	rt.AppendClosest(buf, targets[0], 20, requester)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		buf = rt.AppendClosest(buf[:0], targets[i%len(targets)], 20, requester)
		i++
	})
	if allocs != 0 {
		t.Fatalf("AppendClosest into a caller buffer allocated %v times per call, want 0", allocs)
	}
	if len(buf) != 20 {
		t.Fatalf("got %d contacts, want 20", len(buf))
	}
}

// TestSaturatedBucketObserveAllocatesNothing pins the replacement cache to
// one backing array: newcomers to a full bucket with a full cache shift the
// cache down in place instead of sliding its window through new arrays.
func TestSaturatedBucketObserveAllocatesNothing(t *testing.T) {
	cfg := Config{Bits: 64, K: 4, ReplacementCacheSize: 3, StalenessLimit: 5}
	rt := NewRoutingTable(id.FromUint64(64, 0), cfg)
	const base = 1 << 40 // one bucket
	for i := uint64(0); i < 4; i++ {
		sight(rt, contact(base+i))
	}
	newcomers := make([]Contact, 256)
	for i := range newcomers {
		newcomers[i] = contact(base + 100 + uint64(i))
	}
	for _, c := range newcomers[:8] { // fill the cache
		rt.Observe(&c, false)
	}
	b := rt.bucketFor(newcomers[0].ID)
	if len(b.replacements) != 3 {
		t.Fatalf("replacement cache holds %d contacts, want 3", len(b.replacements))
	}
	backing, capacity := &b.replacements[0], cap(b.replacements)
	i := 8
	allocs := testing.AllocsPerRun(200, func() {
		rt.Observe(&newcomers[i%len(newcomers)], false)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe on a saturated bucket allocated %v times per call, want 0", allocs)
	}
	if &b.replacements[0] != backing || cap(b.replacements) != capacity {
		t.Fatal("replacement cache moved within or off its backing array")
	}
	// Still oldest-first with the newest at the end.
	last := newcomers[(i-1)%len(newcomers)]
	if got := b.replacements[len(b.replacements)-1]; got != last {
		t.Fatalf("newest replacement = %v, want %v", got, last)
	}
	for j := 1; j < len(b.replacements); j++ {
		if b.replacements[j-1].ID.Cmp(b.replacements[j].ID) >= 0 {
			t.Fatalf("replacement cache out of arrival order: %v", b.replacements)
		}
	}
}

// quietCluster is a settled network whose buckets never fill (so no
// liveness pings) and whose refresh never fires during a test.
func quietCluster(t *testing.T, n int) *cluster {
	t.Helper()
	return newCluster(t, Config{Bits: 160, K: 20, Alpha: 3, StalenessLimit: 1, RefreshInterval: 1000 * time.Hour}, n, 3)
}

// TestFindNodeRoundTripAllocationBudget: in steady state a lookup's
// FIND_NODE round trips reuse what the network's pool holds — a lookup
// record with its candidate array, request records, envelopes (both
// directions travel in one) and response buffers — the network's delivery
// records and the kernel's timers. Nothing is left to allocate.
func TestFindNodeRoundTripAllocationBudget(t *testing.T) {
	c := quietCluster(t, 12)
	a := c.nodes[1]
	rng := rand.New(rand.NewSource(1))
	targets := make([]id.ID, 32)
	for i := range targets {
		targets[i] = id.Random(160, rng)
	}
	roundTrips := func(i int) {
		a.Lookup(targets[i%len(targets)], nil)
		c.sim.RunUntil(c.sim.Now() + time.Second)
	}
	for i := 0; i < 2*len(targets); i++ {
		roundTrips(i)
	}
	before := a.Stats()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		roundTrips(i)
		i++
	})
	after := a.Stats()
	sent := after.RPCsSent - before.RPCsSent
	if got := after.ResponsesOK - before.ResponsesOK; got != sent || sent < 3*201 || after.Timeouts != before.Timeouts {
		t.Fatalf("%d requests, %d responses, %d timeouts over 201 lookups", sent, got, after.Timeouts-before.Timeouts)
	}
	if after.LookupsCompleted-before.LookupsCompleted != 201 {
		t.Fatalf("%d lookups completed, want 201", after.LookupsCompleted-before.LookupsCompleted)
	}
	if allocs != 0 {
		t.Fatalf("a lookup of %d FIND_NODE round trips allocated %v times, want 0", sent/201, allocs)
	}
	if c.sim.Pending() != len(c.nodes) {
		t.Errorf("%d events pending after the round trips, want the %d refresh timers", c.sim.Pending(), len(c.nodes))
	}
}

// TestSteadyStateLookupAllocationBudget: a lookup somebody waits for
// allocates what it hands over — the result slice — and what the caller
// brought — the completion closure. A value lookup that misses hands over
// nothing.
func TestSteadyStateLookupAllocationBudget(t *testing.T) {
	c := quietCluster(t, 12)
	a := c.nodes[1]
	rng := rand.New(rand.NewSource(2))
	targets := make([]id.ID, 32)
	for i := range targets {
		targets[i] = id.Random(160, rng)
	}
	completed, contacts, missed := 0, 0, 0
	lookup := func(i int) {
		a.Lookup(targets[i%len(targets)], func(closest []Contact, _ int) {
			completed++
			contacts += len(closest)
		})
		c.sim.RunUntil(c.sim.Now() + time.Second)
	}
	get := func(i int) {
		a.Get(targets[i%len(targets)], func(_ []byte, ok bool) {
			if !ok {
				missed++
			}
		})
		c.sim.RunUntil(c.sim.Now() + time.Second)
	}
	for i := 0; i < 2*len(targets); i++ {
		lookup(i)
		get(i)
	}
	completed, contacts, missed = 0, 0, 0
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		lookup(i)
		i++
	})
	if completed != 201 || contacts != 201*11 {
		t.Fatalf("%d lookups completed with %d contacts, want 201 with 11 each", completed, contacts)
	}
	if allocs > 2 {
		t.Fatalf("a steady-state Lookup allocated %v times, budget 2 (result slice, completion closure)", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		get(i)
		i++
	})
	if missed != 201 {
		t.Fatalf("%d value lookups missed, want 201", missed)
	}
	if allocs > 1 {
		t.Fatalf("a steady-state Get that misses allocated %v times, budget 1 (completion closure)", allocs)
	}
}

// TestLeaveTakesTimeoutsOutOfTheQueue: a departing node's request
// timeouts and refresh timer leave the event queue at once instead of
// being sifted through it until they would have fired.
func TestLeaveTakesTimeoutsOutOfTheQueue(t *testing.T) {
	c := quietCluster(t, 12)
	n := c.nodes[4]
	idle := c.sim.Pending()
	done := false
	n.Lookup(id.FromUint64(160, 99), func([]Contact, int) { done = true })
	inflight := len(n.pending)
	if inflight == 0 {
		t.Fatal("lookup put no request in flight")
	}
	// Per request: its timeout and its message.
	if got := c.sim.Pending(); got != idle+2*inflight {
		t.Fatalf("Pending() = %d with %d requests in flight, want %d", got, inflight, idle+2*inflight)
	}
	n.Leave()
	if got := c.sim.Pending(); got != idle-1+inflight {
		t.Fatalf("Pending() = %d after Leave, want %d (the messages already sent)", got, idle-1+inflight)
	}
	c.sim.RunUntil(c.sim.Now() + 10*time.Second)
	if done || len(n.pending) != 0 {
		t.Fatalf("lookup of a departed node completed=%v, %d requests still pending", done, len(n.pending))
	}
}

// TestLateResponsesNeverMatchRecycledRequests: with a timeout shorter than
// the round trip every response arrives after its request record has gone
// back to the pool and been handed to a later request. None may be taken
// for that later request's answer.
func TestLateResponsesNeverMatchRecycledRequests(t *testing.T) {
	// One node's lookups: a record freed at a timeout serves the node's
	// next request under a new id, while the late responders write into
	// buffers of the pool (bufferAudit follows them by address), and the
	// requester gives each back.
	t.Run("one node", func(t *testing.T) {
		sim := eventsim.New(5)
		net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency{D: 80 * time.Millisecond}})
		cfg := Config{Bits: 160, K: 20, RPCTimeout: 100 * time.Millisecond, RefreshInterval: 1000 * time.Hour}
		audit := newBufferAudit(t, net)
		var nodes []*Node
		for i := 0; i < 8; i++ {
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
		a := nodes[0]
		completed := 0
		for i := 0; i < 50; i++ {
			a.Lookup(id.FromUint64(160, uint64(i)), func(closest []Contact, responded int) {
				completed++
				if responded != 0 || len(closest) != 0 {
					t.Errorf("lookup %d: %d responded, %d closest, though every response was late", i, responded, len(closest))
				}
			})
			sim.RunUntil(sim.Now() + 130*time.Millisecond) // responses of this lookup land inside the next
		}
		sim.RunUntil(sim.Now() + time.Minute)
		st := a.Stats()
		if completed != 50 || st.ResponsesOK != 0 || st.Timeouts != st.RPCsSent || len(a.pending) != 0 {
			t.Fatalf("completed=%d stats=%+v pending=%d", completed, st, len(a.pending))
		}
		// Every request reached its responder and every response was late;
		// each went out in a buffer from the pool and came back to it.
		if uint64(audit.requests) != st.RPCsSent || audit.late != audit.requests || audit.delivered != audit.late ||
			audit.taken+audit.made != audit.late || len(audit.out) != 0 {
			t.Fatalf("%d requests sent: audit saw %d, %d late responses; buffers %d taken, %d made, %d given back",
				st.RPCsSent, audit.requests, audit.late, audit.taken, audit.made, audit.delivered)
		}
		if depth := checkPool(t, nodes); depth == 0 || depth > 3 {
			t.Fatalf("%d lookup records in the pool, want the records of the up to three lookups that overlapped", depth)
		}
	})
	// Two nodes: a's request times out and its record goes back to the
	// pool; b's next request takes it, under b's own first id, which is the
	// id a's request had. a's late response carries the record while it
	// waits on b's request: only the record's node tells them apart.
	t.Run("across nodes", func(t *testing.T) {
		sim := eventsim.New(3)
		net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency{D: 80 * time.Millisecond}})
		cfg := Config{Bits: 64, K: 5, RPCTimeout: 100 * time.Millisecond, RefreshInterval: 1000 * time.Hour}
		var nodes []*Node
		for i := 1; i <= 3; i++ {
			n, err := NewNode(cfg, simnet.Addr(i), net)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		a, b, c := nodes[0], nodes[1], nodes[2]
		a.sendRequest(c.Contact(), msgPing, id.ID{}, nil, nil) // answered at 160 ms, times out at 100 ms
		record := a.pending[0]
		sim.RunUntil(120 * time.Millisecond)
		b.sendRequest(c.Contact(), msgPing, id.ID{}, nil, nil) // pending until 220 ms
		if len(b.pending) != 1 || b.pending[0] != record || record.id != 0 {
			t.Fatalf("b's request did not take a's record under id 0")
		}
		sim.RunUntil(170 * time.Millisecond) // a's late response has landed
		if st := a.Stats(); st.ResponsesOK != 0 || st.Timeouts != 1 || len(a.pending) != 0 {
			t.Fatalf("a's late response was taken for an answer: %+v, %d pending", st, len(a.pending))
		}
		if len(b.pending) != 1 || b.pending[0] != record || !record.timeout.Pending() || b.Stats().ResponsesOK != 0 {
			t.Fatal("a's late response released b's request")
		}
		sim.RunUntil(time.Second)
		if st := b.Stats(); st.ResponsesOK != 0 || st.Timeouts != 1 || len(b.pending) != 0 {
			t.Fatalf("b at the end: %+v, %d pending", st, len(b.pending))
		}
	})
}
