package kademlia

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kadre/internal/eventsim"
	"kadre/internal/id"
	"kadre/internal/simnet"
)

// ErrNotRunning reports an operation on a node that has not started or has
// left the network.
var ErrNotRunning = errors.New("kademlia: node not running")

// NodeStats counts protocol-level activity on one node.
type NodeStats struct {
	RPCsSent         uint64
	RPCsAnswered     uint64
	ResponsesOK      uint64
	Timeouts         uint64
	LookupsStarted   uint64
	LookupsCompleted uint64
	StoresSent       uint64
	Refreshes        uint64
	Evictions        uint64
}

// Node is one Kademlia participant, driven entirely by simulation events.
// Create with NewNode, activate with Start, remove with Leave.
type Node struct {
	cfg   Config
	self  Contact
	sim   *eventsim.Simulator
	net   *simnet.Network
	table *RoutingTable

	storage map[id.ID][]byte

	nextRPC uint64
	// pending holds the outstanding requests in no particular order; each
	// record knows its own position, so one leaves by swap-remove. A
	// response finds its record through its envelope (see matches), not by
	// a search here.
	pending      []*rpc
	refreshTimer *eventsim.Timer
	running      bool
	stats        NodeStats

	pool *pool // the network's idle records, shared with every node of net
}

// pool holds every record the nodes of one simnet.Network recycle, while
// it is idle: lookup records, request records, envelopes and response
// buffers. The first node created on a network installs it in the
// network's Protocol slot and every later one shares it. A network is
// driven by one goroutine, so the pool needs no lock, and two networks
// never share one.
//
// A response buffer makes one trip. The responder takes it from the pool
// when it answers FIND_NODE or FIND_VALUE, and whoever ends the response's
// trip gives it back: the requester's Deliver, after any lookup has merged
// it, or Dropped. Requests carry none.
//
// The pool is per network and not per node because it is then as deep as
// the network's real concurrency, where a node's own lists would each hold
// that node's largest burst of requests: per-node lists of lookup records
// read peak_rss_mb x1.19-x1.66 on the four benchmark workloads.
type pool struct {
	lookups   *lookup
	rpcs      *rpc
	envelopes *envelope
	buffers   [][]Contact
	seeds     []Contact // scratch: a starting lookup's closest known contacts
}

func poolOf(net *simnet.Network) *pool {
	if net.Protocol == nil {
		net.Protocol = new(pool)
	}
	if pl, ok := net.Protocol.(*pool); ok {
		return pl
	}
	return new(pool) // the slot is somebody else's: this node keeps its own pool
}

// buffer takes an empty response buffer, or makes one of k contacts.
func (pl *pool) buffer(k int) []Contact {
	if last := len(pl.buffers) - 1; last >= 0 {
		buf := pl.buffers[last]
		pl.buffers = pl.buffers[:last]
		return buf
	}
	return make([]Contact, 0, k)
}

// release ends a message's trip: the envelope, and the response buffer it
// carries if any, go back to the pool.
func (pl *pool) release(env *envelope) {
	if cap(env.Contacts) > 0 {
		pl.buffers = append(pl.buffers, env.Contacts[:0])
	}
	env.Value, env.Contacts = nil, nil
	env.next, pl.envelopes = pl.envelopes, env
}

// rpc is one outstanding request: the node's pending-table entry, the
// request's own timeout event, and the way back into the lookup that sent
// it. Its timer never leaves the record, and the record goes back to the
// pool only after the timer has fired or been cancelled.
type rpc struct {
	node    *Node
	id      uint64
	slot    int // position in node.pending while outstanding
	to      Contact
	lookup  *lookup // nil for fire-and-forget requests (PING, STORE)
	timeout eventsim.Timer
	next    *rpc // pool link
}

// matches reports whether env, which carries p, is the request p is still
// waiting on or its response. A record that is idle (timed out, answered,
// or its node left) has no pending timer. A node's request ids only grow,
// so a record it reuses for a later request never matches an envelope of
// an earlier one; but every node of the network draws records from one
// pool, and a record node A freed at a timeout can be serving node B, under
// an id of B's, when A's late response arrives.
func (p *rpc) matches(n *Node, env *envelope) bool {
	return p.node == n && p.id == env.RPCID && p.timeout.Pending()
}

// Run implements eventsim.Runner: the request timed out. A response or
// Leave cancels the timer, so a timeout that fires is still pending on a
// running node.
func (p *rpc) Run() {
	n := p.node
	n.untrack(p)
	n.stats.Timeouts++
	if n.table.RecordFailure(p.to.ID) {
		n.stats.Evictions++
	}
	l, to := p.lookup, p.to.ID
	n.freeRPC(p)
	if l != nil {
		l.answered(to, nil)
		l.retire()
	}
}

// untrack takes an outstanding request out of the pending table.
func (n *Node) untrack(p *rpc) {
	last := len(n.pending) - 1
	moved := n.pending[last]
	moved.slot = p.slot
	n.pending[p.slot] = moved
	n.pending[last] = nil
	n.pending = n.pending[:last]
}

func (n *Node) freeRPC(p *rpc) {
	p.lookup = nil
	p.next, n.pool.rpcs = n.pool.rpcs, p
}

// AddrID derives a node identifier from a network address the way the
// paper describes: by hashing the address with a cryptographic hash.
func AddrID(bits int, addr simnet.Addr) id.ID {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(addr))
	return id.Hash(bits, buf[:])
}

// NewNode creates a node with the identifier derived from addr. The node
// is inert until Start.
func NewNode(cfg Config, addr simnet.Addr, net *simnet.Network) (*Node, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newNodeWithID(cfg, Contact{ID: AddrID(cfg.Bits, addr), Addr: addr}, net), nil
}

func newNodeWithID(cfg Config, self Contact, net *simnet.Network) *Node {
	return &Node{
		cfg:     cfg,
		self:    self,
		sim:     net.Sim(),
		net:     net,
		table:   NewRoutingTable(self.ID, cfg),
		storage: make(map[id.ID][]byte),
		pool:    poolOf(net),
	}
}

// ID returns the node's identifier.
func (n *Node) ID() id.ID { return n.self.ID }

// Addr returns the node's network address.
func (n *Node) Addr() simnet.Addr { return n.self.Addr }

// Contact returns the node's own contact record.
func (n *Node) Contact() Contact { return n.self }

// Table exposes the routing table for snapshotting and tests.
func (n *Node) Table() *RoutingTable { return n.table }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Running reports whether the node is attached to the network.
func (n *Node) Running() bool { return n.running }

// Config returns the node's effective (defaulted) configuration.
func (n *Node) Config() Config { return n.cfg }

// Start attaches the node to the network and schedules bucket refreshes.
func (n *Node) Start() error {
	if n.running {
		return fmt.Errorf("kademlia: node %s already running", n.self)
	}
	if err := n.net.Attach(n.self.Addr, n); err != nil {
		return fmt.Errorf("kademlia: start: %w", err)
	}
	n.running = true
	n.scheduleRefresh()
	return nil
}

// Leave silently detaches the node, modelling departure or crash: no
// goodbye messages, exactly like the paper's churn removals. Pending RPC
// callbacks are cancelled, and the lookups they belonged to are never
// resumed: each ends without reporting, and its record goes back to the
// network's pool once its last request is cancelled. Leave is called by
// events of its own (churn, an adversary, a session's end), never from a
// lookup's callback, so no lookup it retires is still on the stack.
func (n *Node) Leave() {
	if !n.running {
		return
	}
	n.running = false
	n.net.Detach(n.self.Addr)
	if n.refreshTimer != nil {
		n.refreshTimer.Cancel()
		n.refreshTimer = nil
	}
	for i, p := range n.pending {
		p.timeout.Cancel()
		l := p.lookup
		n.freeRPC(p)
		n.pending[i] = nil
		if l != nil {
			l.inflight--
			l.finished = true
			l.retire()
		}
	}
	n.pending = n.pending[:0]
}

// Join bootstraps the node into a network via one known contact: the
// bootstrap node enters the routing table and a self-lookup advertises the
// joiner along the lookup path while harvesting contacts. done (optional)
// receives the number of nodes that responded during the self-lookup.
func (n *Node) Join(bootstrap Contact, done func(responded int)) error {
	if !n.running {
		return ErrNotRunning
	}
	if bootstrap.ID.Equal(n.self.ID) {
		return fmt.Errorf("kademlia: cannot bootstrap from self")
	}
	n.observe(&bootstrap, false)
	n.Lookup(n.self.ID, func(contacts []Contact, responded int) {
		if done != nil {
			done(responded)
		}
	})
	return nil
}

// Lookup runs the iterative FIND_NODE procedure toward target and calls
// done with the closest responding contacts and the count of nodes
// successfully contacted.
func (n *Node) Lookup(target id.ID, done func(closest []Contact, responded int)) {
	if !n.running {
		if done != nil {
			done(nil, 0)
		}
		return
	}
	n.stats.LookupsStarted++
	l := n.newLookup(target, lookupNode)
	l.onComplete = done
	l.start()
}

// Store disseminates a key/value pair: it locates the k closest nodes to
// the key and sends each a STORE. done (optional) receives the number of
// STORE requests dispatched. The recipients keep value itself, not a copy,
// so the caller must not modify it afterwards.
func (n *Node) Store(key id.ID, value []byte, done func(sent int)) {
	if !n.running {
		if done != nil {
			done(0)
		}
		return
	}
	n.Lookup(key, func(closest []Contact, _ int) {
		if !n.running {
			if done != nil {
				done(0)
			}
			return
		}
		for _, c := range closest {
			n.stats.StoresSent++
			n.sendRequest(c, msgStore, key, value, nil)
		}
		if done != nil {
			done(len(closest))
		}
	})
}

// Get runs the iterative FIND_VALUE procedure. done receives the value if
// any queried node had it: the slice that node stores, which done must not
// modify.
func (n *Node) Get(key id.ID, done func(value []byte, ok bool)) {
	if !n.running {
		if done != nil {
			done(nil, false)
		}
		return
	}
	n.stats.LookupsStarted++
	l := n.newLookup(key, lookupValue)
	l.onValue = done
	l.start()
}

// HasValue reports whether the node stores key locally.
func (n *Node) HasValue(key id.ID) bool {
	_, ok := n.storage[key]
	return ok
}

// Deliver implements simnet.Handler.
func (n *Node) Deliver(from simnet.Addr, payload any) {
	if !n.running {
		return
	}
	env, ok := payload.(*envelope)
	if !ok {
		return // foreign traffic; ignore
	}
	// Any message from another node refreshes its routing-table standing,
	// and a response to a request still pending is a success of its sender
	// as well: one table update records both.
	p := env.rpc
	answered := env.IsResponse && p.matches(n, env) && p.to.Addr == from
	n.observe(&env.From, answered)
	if !env.IsResponse {
		n.stats.RPCsAnswered++
		n.answer(env)
		return
	}
	if answered {
		n.untrack(p)
		p.timeout.Cancel()
		n.stats.ResponsesOK++
		l, to := p.lookup, p.to.ID
		n.freeRPC(p)
		if l != nil {
			l.answered(to, env)
			l.retire()
		}
	} // else a late, duplicate or spoofed response
	n.pool.release(env)
}

// answer handles a request and sends its response in the request's own
// envelope.
func (n *Node) answer(env *envelope) {
	requester := env.From
	switch env.Kind {
	case msgPing:
	case msgFindNode:
		env.Contacts = n.closestExcluding(env.Key, requester.ID)
	case msgStore:
		n.storage[env.Key] = env.Value // shared, never written: see envelope
		env.Value = nil
	case msgFindValue:
		if v, ok := n.storage[env.Key]; ok {
			env.Found, env.Value = true, v
		} else {
			env.Contacts = n.closestExcluding(env.Key, requester.ID)
		}
	default:
		return
	}
	env.From, env.IsResponse = n.self, true
	n.net.Send(n.self.Addr, requester.Addr, env)
}

// closestExcluding returns the k closest contacts to target, omitting the
// requester (it knows itself already), in a buffer from the pool.
func (n *Node) closestExcluding(target id.ID, requester id.ID) []Contact {
	return n.table.AppendClosest(n.pool.buffer(n.cfg.K), target, n.cfg.K, requester)
}

// sendRequest issues an RPC with timeout tracking. l is the lookup to
// resume with the outcome; nil means fire-and-forget (the response still
// refreshes the routing table; a timeout still charges staleness).
func (n *Node) sendRequest(to Contact, kind msgKind, key id.ID, value []byte, l *lookup) {
	if !n.running {
		if l != nil {
			l.answered(to.ID, nil)
		}
		return
	}
	p := n.pool.rpcs
	if p != nil {
		n.pool.rpcs = p.next
	} else {
		p = new(rpc)
	}
	p.node, p.id, p.to, p.lookup, p.next = n, n.nextRPC, to, l, nil
	n.nextRPC++
	// The timeout is armed before the message is sent: events fire in
	// schedule order, and this order is part of every recorded result.
	n.sim.Arm(&p.timeout, RPCTimeout, p)
	p.slot = len(n.pending)
	n.pending = append(n.pending, p)
	n.stats.RPCsSent++

	env := n.pool.envelopes
	if env != nil {
		n.pool.envelopes = env.next
	} else {
		env = new(envelope)
	}
	*env = envelope{RPCID: p.id, From: n.self, Kind: kind, Key: key, Value: value, rpc: p}
	n.net.Send(n.self.Addr, to.Addr, env)
}

// observe feeds a contact sighting, an answered request's when answered is
// set, into the routing table and issues the liveness ping the table may
// request for a full bucket's least-recently-seen entry.
func (n *Node) observe(c *Contact, answered bool) {
	if probe := n.table.Observe(c, answered); !probe.ID.IsZeroValue() {
		n.sendRequest(probe, msgPing, id.ID{}, nil, nil)
	}
}

// scheduleRefresh arms the periodic bucket refresh (§4.1: every node
// refreshes each bucket hourly by looking up a random identifier from the
// bucket's range).
func (n *Node) scheduleRefresh() {
	n.refreshTimer = n.sim.MustSchedule(RefreshInterval, func() {
		if !n.running {
			return
		}
		n.refreshBuckets()
		n.scheduleRefresh()
	})
}

func (n *Node) refreshBuckets() {
	n.stats.Refreshes++
	for _, i := range n.table.RefreshTargets() {
		target := id.RandomInBucket(n.self.ID, i, n.sim.Rand())
		n.Lookup(target, nil)
	}
}
