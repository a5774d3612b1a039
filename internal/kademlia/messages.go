package kademlia

import "kadre/internal/id"

// Wire messages. Every message travels inside an envelope carrying the
// sender's contact information, because receiving any message — request or
// response — updates the receiver's routing table (§4.1).

// msgKind names the four Kademlia RPCs.
type msgKind uint8

const (
	// msgPing is the PING liveness probe; neither direction carries data.
	msgPing msgKind = iota + 1
	// msgFindNode asks for the k closest contacts to Key.
	msgFindNode
	// msgStore persists Key/Value on the receiver.
	msgStore
	// msgFindValue is msgFindNode that short-circuits with Found and Value
	// when the receiver stores Key.
	msgFindValue
)

// envelope is one message of either direction: the fields of all four RPCs
// side by side, so that a message is a single record handed to the network
// by pointer instead of a payload boxed inside an envelope boxed again.
//
// An envelope belongs to whoever holds it. The requester takes one from
// its free list, the responder answers in place and sends the same record
// back, and the requester frees it once the response is handled — so a
// steady-state round trip allocates no envelope. Nothing may keep a
// pointer to an envelope past the Deliver call that received it. An
// envelope whose message is lost or undeliverable goes back to its
// requester's free list too: the network hands it over through Dropped.
//
// The envelope also carries its request's record on the requester, which
// is how a response, or a drop, finds the request it belongs to without a
// table lookup: the record answers for the envelope only while it still
// waits under the envelope's RPCID (rpc.matches). The responder never
// reads it.
//
// Contacts travels with the envelope and belongs to its holder too. A
// lookup's request leaves with one of the lookup's response buffers in it,
// empty; the responder fills that buffer in place (growing it if its k is
// larger), and the requester's lookup takes it back when it handles the
// response. If the request has timed out by then the lookup has already
// given the buffer up, Deliver drops it, and nobody reads what the late
// responder wrote. If the request or its response is dropped while the
// request is still pending, Dropped parks the buffer on the request, and
// the request's timeout gives it back to the lookup. A request no lookup
// sent (PING, STORE, a test's bare FIND_NODE) carries none, and a
// responder that needs one allocates it.
// Idle envelopes never hold a buffer: the buffers wait on the network's
// lookup records (see lookup), which are as many as lookups run at once,
// not on every node's envelope list, which is as deep as that node's
// largest burst of requests — a list of k contacts parked in every idle
// envelope cost more resident memory than it saved time.
//
// Value is shared, never copied: a STORE hands its slice to every
// recipient's storage, and a FIND_VALUE hit answers with the stored slice
// itself. No node writes into a value's bytes, so one immutable slice can
// serve every store and hit of a run.
type envelope struct {
	RPCID      uint64
	From       Contact
	Kind       msgKind
	IsResponse bool
	// Found reports a FIND_VALUE hit; Value then holds the data.
	Found bool
	// Key is the FIND_NODE target or the STORE/FIND_VALUE key of a request.
	Key id.ID
	// Value is the STORE request's data or the FIND_VALUE response's.
	Value []byte
	// Contacts is the request's empty response buffer and the
	// FIND_NODE/FIND_VALUE response's closest-contact list in it.
	Contacts []Contact

	rpc  *rpc      // the request's record on its sender, who frees the envelope
	next *envelope // free-list link
}

// Dropped implements simnet.Dropper: the request or its response will
// never arrive. The envelope goes back on its requester's free list, and
// its response buffer is parked on the request if that is still pending,
// for the request's timeout to hand back to the lookup. Nothing else
// changes: the timeout fires as it would have, with the same counters.
func (env *envelope) Dropped() {
	p := env.rpc
	n := p.node
	if p.matches(n, env) {
		p.buf = env.Contacts
	}
	env.Value, env.Contacts = nil, nil
	if n.running {
		env.next, n.freeEnvelopes = n.freeEnvelopes, env
	}
}
