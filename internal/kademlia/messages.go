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
// The requester takes an envelope from the pool, the responder answers in
// place and sends the same record back, and the requester's Deliver
// returns it once the response is handled; a message the network drops
// returns it through Dropped. Nothing may keep a pointer to an envelope
// past the Deliver call that received it. The envelope also carries its
// request's record on the requester, which is how a response finds the
// request it belongs to without a table lookup (rpc.matches); the
// responder never reads it.
//
// Contacts is the response buffer, which goes back to the pool with the
// envelope (see pool). Value is shared, never copied: a STORE hands its
// slice to every recipient's storage, and a FIND_VALUE hit answers with
// the stored slice itself. No node writes into a value's bytes, so one
// immutable slice can serve every store and hit of a run.
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
	// Contacts is the FIND_NODE/FIND_VALUE response's closest-contact list.
	Contacts []Contact

	rpc  *rpc      // the request's record on its sender
	next *envelope // pool link
}

// Dropped implements simnet.Dropper: the request or its response will
// never arrive, and the envelope goes back to the pool. Nothing else
// changes: the request's timeout fires as it would have, with the same
// counters.
func (env *envelope) Dropped() {
	env.rpc.node.pool.release(env)
}
