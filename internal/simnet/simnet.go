// Package simnet simulates a message-passing network on top of the
// discrete-event kernel: hosts attach under integer addresses, and every
// message is delayed by a uniform draw from a latency range and lost
// one-way with a fixed probability. It plays the role of PeerSim's
// transport layer in the paper, including the Table 1 message-loss
// scenarios.
package simnet

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"kadre/internal/eventsim"
)

// Addr is a network address. The paper derives Kademlia identifiers from
// network addresses by hashing; simnet keeps addresses opaque integers.
type Addr uint64

// Handler receives messages delivered to an attached host.
type Handler interface {
	// Deliver is invoked by the network when a message arrives. It runs on
	// the simulation goroutine; implementations must not block.
	Deliver(from Addr, payload any)
}

// Dropper is implemented by payloads that hold memory their sender would
// reuse: the network calls Dropped once it knows a message will never be
// delivered — lost in transit, or addressed to a host detached by
// delivery time — and then lets go of the payload. Dropped runs on the
// simulation goroutine and must not send, schedule or draw randomness.
type Dropper interface {
	Dropped()
}

// Stats counts network-level message outcomes.
type Stats struct {
	Sent      uint64 // messages handed to the network
	Delivered uint64 // messages delivered to an attached handler
	Lost      uint64 // messages lost to the one-way loss probability
	NoRoute   uint64 // messages whose destination had no host at delivery
}

// UniformLatency delays each message by a uniform draw from [Min, Max].
// A range with Max <= Min delays every message by Min and draws no random
// number.
type UniformLatency struct{ Min, Max time.Duration }

// Delay draws one message's one-way delay.
func (u UniformLatency) Delay(r *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(r.Int63n(int64(u.Max-u.Min)+1))
}

// Config parameterizes a Network: each message is delayed by a draw from
// Latency and, independently, lost with probability Loss. The paper's
// Table 1 scenarios are such uniform one-way losses (LossLevel.OneWayLoss).
// A zero Latency delays every message by a constant 50 ms; a zero Loss
// delivers every message.
type Config struct {
	Latency UniformLatency
	Loss    float64
}

// AddrLimit is the ceiling on host addresses: Attach refuses any address
// at or above it. Hosts are found by indexing a table with their address,
// which suits the way scenarios number their hosts 1, 2, 3, …; the ceiling
// bounds that table at 64 MiB of handlers however an address is chosen.
const AddrLimit = 1 << 22

// Network is a simulated message-passing network. It is driven entirely by
// the simulation goroutine and is not safe for concurrent use.
//
// Hosts live in a table indexed by address, grown on demand to the highest
// attached one: a delivery finds its handler by one bounds check and one
// load, with no hashing. An address past the table has no host.
type Network struct {
	// Protocol is a slot for the protocol layer above: state that every
	// host of this network shares and that must not outlive or cross
	// networks (kademlia keeps its pool of idle records here). The
	// network never reads it; like the network itself it belongs to the
	// simulation goroutine.
	Protocol any

	sim      *eventsim.Simulator
	latency  UniformLatency
	loss     float64   // one-way loss probability
	hosts    []Handler // by address; nil where nothing is attached
	attached int       // non-nil entries of hosts
	stats    Stats
	fp       uint64    // rolling hash of every Send, see Fingerprint
	free     *delivery // idle delivery records, reused by Send
}

// delivery is one message in flight and the event that delivers it: Send
// arms the record's own timer with the record as its body, so a message
// costs neither a closure nor a timer.
type delivery struct {
	timer    eventsim.Timer
	net      *Network
	from, to Addr
	payload  any
	next     *delivery // free-list link
}

// Run implements eventsim.Runner: the message arrives. The record goes
// back on the free list before the handler runs, so the sends a handler
// makes in reply reuse it; its timer is idle by then.
func (d *delivery) Run() {
	n, from, to, payload := d.net, d.from, d.to, d.payload
	d.payload = nil
	d.next, n.free = n.free, d
	h := n.host(to)
	if h == nil {
		n.stats.NoRoute++
		dropped(payload)
		return
	}
	n.stats.Delivered++
	h.Deliver(from, payload)
}

// New builds a network on the given simulator.
func New(sim *eventsim.Simulator, cfg Config) *Network {
	if cfg.Latency == (UniformLatency{}) {
		cfg.Latency = UniformLatency{Min: 50 * time.Millisecond, Max: 50 * time.Millisecond}
	}
	return &Network{
		sim:     sim,
		latency: cfg.Latency,
		loss:    cfg.Loss,
		fp:      fpSeed,
	}
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *eventsim.Simulator { return n.sim }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Fingerprint returns a 64-bit rolling hash of every Send so far, in
// order: its virtual time, its two addresses and whether it was lost. Two runs with equal fingerprints and equal event counts
// sent the same messages at the same instants, so a change that claims
// to move no event can be checked against a recorded value.
func (n *Network) Fingerprint() uint64 { return n.fp }

const fpSeed = 0xcbf29ce484222325 // the fingerprint of no message

// fingerprint folds one Send into the rolling hash as two 64-bit words,
// its time and then its addresses and loss bit (attached addresses are
// below AddrLimit, 2^22, so both fit one word). Each fold xors a word in,
// multiplies by an odd constant (a bijection that carries low bits
// upward) and rotates (which carries high bits back down).
func (n *Network) fingerprint(from, to Addr, lost bool) {
	w := uint64(from)<<23 | uint64(to)<<1
	if lost {
		w |= 1
	}
	const prime = 0x9e3779b97f4a7c15
	h := bits.RotateLeft64((n.fp^uint64(n.sim.Now()))*prime, 31)
	n.fp = bits.RotateLeft64((h^w)*prime, 31)
}

// Attach registers a handler under an address below AddrLimit. Attaching
// an address twice is an error: it would silently hijack traffic.
func (n *Network) Attach(addr Addr, h Handler) error {
	switch {
	case h == nil:
		return fmt.Errorf("simnet: attach %d: nil handler", addr)
	case addr >= AddrLimit:
		return fmt.Errorf("simnet: attach %d: address at or above the limit %d", addr, AddrLimit)
	case n.host(addr) != nil:
		return fmt.Errorf("simnet: attach %d: address already attached", addr)
	}
	if int(addr) >= len(n.hosts) {
		n.hosts = append(n.hosts, make([]Handler, int(addr)+1-len(n.hosts))...)
	}
	n.hosts[addr] = h
	n.attached++
	return nil
}

// Detach removes the handler for an address, modelling a node crash or
// departure. Messages in flight to the address are dropped at delivery
// time. Detaching an unknown address is a no-op.
func (n *Network) Detach(addr Addr) {
	if n.host(addr) != nil {
		n.hosts[addr] = nil
		n.attached--
	}
}

// Attached reports whether an address currently has a handler.
func (n *Network) Attached(addr Addr) bool { return n.host(addr) != nil }

// NumAttached returns the number of attached hosts.
func (n *Network) NumAttached() int { return n.attached }

// host returns the handler attached at addr, or nil.
func (n *Network) host(addr Addr) Handler {
	if addr < Addr(len(n.hosts)) {
		return n.hosts[addr]
	}
	return nil
}

// Send transmits payload from one address to another, subject to the
// configured loss and latency. Delivery, if it happens, is a future
// simulation event. Send never blocks and reports nothing to the sender:
// like UDP, loss is only observable through missing responses. A message
// draws the kernel's random stream at most twice, loss first: the loss
// draw only when the loss probability is positive, the delay draw only
// when it is delivered over a non-degenerate latency range.
func (n *Network) Send(from, to Addr, payload any) {
	n.stats.Sent++
	lost := n.loss > 0 && n.sim.Rand().Float64() < n.loss
	n.fingerprint(from, to, lost)
	if lost {
		n.stats.Lost++
		dropped(payload)
		return
	}
	delay := n.latency.Delay(n.sim.Rand())
	d := n.free
	if d != nil {
		n.free = d.next
	} else {
		d = &delivery{net: n}
	}
	d.from, d.to, d.payload, d.next = from, to, payload, nil
	n.sim.Arm(&d.timer, delay, d)
}

// dropped hands a payload that will never arrive back to its owner.
func dropped(payload any) {
	if d, ok := payload.(Dropper); ok {
		d.Dropped()
	}
}
