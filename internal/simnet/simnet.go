// Package simnet simulates a message-passing network on top of the
// discrete-event kernel: hosts attach under integer addresses, messages
// incur configurable latency, and a loss model drops messages one-way with
// a configurable probability. It plays the role of PeerSim's transport
// layer in the paper, including the Table 1 message-loss scenarios.
package simnet

import (
	"fmt"
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
// delivered — lost to the loss model, or addressed to a host detached by
// delivery time — and then lets go of the payload. Dropped runs on the
// simulation goroutine and must not send, schedule or draw randomness.
type Dropper interface {
	Dropped()
}

// Stats counts network-level message outcomes.
type Stats struct {
	Sent      uint64 // messages handed to the network
	Delivered uint64 // messages delivered to an attached handler
	Lost      uint64 // messages dropped by the loss model
	NoRoute   uint64 // messages whose destination had no host at delivery
}

// LatencyModel determines per-message one-way delay.
type LatencyModel interface {
	Delay(r *rand.Rand, from, to Addr) time.Duration
}

// ConstantLatency delays every message by D.
type ConstantLatency struct{ D time.Duration }

// Delay implements LatencyModel.
func (c ConstantLatency) Delay(*rand.Rand, Addr, Addr) time.Duration { return c.D }

// UniformLatency delays each message by a uniform draw from [Min, Max].
type UniformLatency struct{ Min, Max time.Duration }

// Delay implements LatencyModel.
func (u UniformLatency) Delay(r *rand.Rand, _, _ Addr) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(r.Int63n(int64(u.Max-u.Min)+1))
}

// LossModel decides whether a single one-way message transmission is lost.
type LossModel interface {
	Drop(r *rand.Rand, from, to Addr) bool
}

// NoLoss delivers every message.
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(*rand.Rand, Addr, Addr) bool { return false }

// UniformLoss drops each one-way message independently with probability P.
// The paper's Table 1 scenarios are uniform one-way losses chosen so the
// two-way (request/response) failure probability hits a target:
// P2way = 1 - (1-P)^2.
type UniformLoss struct{ P float64 }

// Drop implements LossModel.
func (u UniformLoss) Drop(r *rand.Rand, _, _ Addr) bool {
	return u.P > 0 && r.Float64() < u.P
}

// TwoWayFailure returns the probability that a request/response exchange
// fails under one-way loss probability p: 1 - (1-p)^2.
func TwoWayFailure(p float64) float64 { return 1 - (1-p)*(1-p) }

// Channel identifies a directed communication channel.
type Channel struct{ From, To Addr }

// ChannelLoss overlays per-channel disturbance probabilities on a base
// model, modelling the system-model attacker who disturbs specific
// communication channels. A message is dropped if either the base model or
// the channel disturbance drops it.
type ChannelLoss struct {
	Base      LossModel
	Disturbed map[Channel]float64
}

// Drop implements LossModel.
func (c ChannelLoss) Drop(r *rand.Rand, from, to Addr) bool {
	if c.Base != nil && c.Base.Drop(r, from, to) {
		return true
	}
	if p, ok := c.Disturbed[Channel{From: from, To: to}]; ok && r.Float64() < p {
		return true
	}
	return false
}

// Config parameterizes a Network. Zero-value fields fall back to a constant
// 50 ms latency and no loss.
type Config struct {
	Latency LatencyModel
	Loss    LossModel
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
	latency  LatencyModel
	loss     LossModel
	hosts    []Handler // by address; nil where nothing is attached
	attached int       // non-nil entries of hosts
	stats    Stats
	free     *delivery // idle delivery records, reused by Send
}

// delivery is one message in flight and the event that delivers it: Send
// posts the record itself to the kernel, so a message costs no closure.
type delivery struct {
	net      *Network
	from, to Addr
	payload  any
	next     *delivery // free-list link
}

// Run implements eventsim.Runner: the message arrives. The record goes
// back on the free list before the handler runs, so the sends a handler
// makes in reply reuse it.
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
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency{D: 50 * time.Millisecond}
	}
	if cfg.Loss == nil {
		cfg.Loss = NoLoss{}
	}
	return &Network{
		sim:     sim,
		latency: cfg.Latency,
		loss:    cfg.Loss,
	}
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *eventsim.Simulator { return n.sim }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// SetLoss replaces the loss model. Experiments use this to begin or end a
// disturbance at a phase boundary.
func (n *Network) SetLoss(m LossModel) {
	if m == nil {
		m = NoLoss{}
	}
	n.loss = m
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

// Send transmits payload from one address to another, subject to the loss
// and latency models. Delivery, if it happens, is a future simulation
// event. Send never blocks and reports nothing to the sender: like UDP,
// loss is only observable through missing responses.
func (n *Network) Send(from, to Addr, payload any) {
	n.stats.Sent++
	if n.loss.Drop(n.sim.Rand(), from, to) {
		n.stats.Lost++
		dropped(payload)
		return
	}
	delay := n.latency.Delay(n.sim.Rand(), from, to)
	d := n.free
	if d != nil {
		n.free = d.next
	} else {
		d = &delivery{net: n}
	}
	d.from, d.to, d.payload, d.next = from, to, payload, nil
	n.sim.Post(delay, d)
}

// dropped hands a payload that will never arrive back to its owner.
func dropped(payload any) {
	if d, ok := payload.(Dropper); ok {
		d.Dropped()
	}
}
