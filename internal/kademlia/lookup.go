package kademlia

import (
	"kadre/internal/id"
	"kadre/internal/simnet"
)

// The iterative lookup procedure (§4.1 of the paper): starting from the k
// closest known contacts, query alpha of them in parallel; each response
// contributes new, closer candidates; the lookup converges on the target
// and terminates once the k closest discovered nodes have all been
// successfully contacted (or no progress is possible), or — for value
// lookups — as soon as any node returns the value.

type lookupKind uint8

const (
	lookupNode lookupKind = iota + 1
	lookupValue
)

type candidateState uint8

const (
	stateUnqueried candidateState = iota + 1
	stateInflight
	stateResponded
	stateFailed
)

// candidate is one contact a lookup has accepted. It holds no pointer, so
// a lookup's candidate array costs the collector nothing to keep.
type candidate struct {
	contact Contact
	// prefix caches contact.ID.XorPrefix(target), the 64 most significant
	// bits of the candidate's distance: the key the list is searched on.
	prefix uint64
	state  candidateState
}

// lookup is one iterative lookup in progress, and the record it runs on.
//
// Records are recycled through a free list shared by every node of one
// simnet.Network (lookupPool). A record returns to the list exactly when
// finished && inflight == 0 — the result is out and no request record
// points at it any more — and it keeps its candidates array and its idle
// response buffers across uses, so a steady-state lookup allocates neither.
//
// Response buffers have one owner at every step of a round trip. query
// takes an idle buffer off the lookup (or allocates one of k contacts) and
// hands it over in the request envelope's Contacts, empty; from then on it
// belongs to whoever holds the envelope. The responder fills it in place,
// the response brings it back, and answered returns it to the lookup after
// merging its contents. A request that times out while its message is
// still travelling takes its buffer with it: the lookup never sees that
// buffer again and allocates afresh, so a responder that answers late can
// only ever write into memory nobody reads. A message the network drops
// instead — the request or its response — parks the buffer on the pending
// request (envelope.Dropped), and the timeout hands it back to the lookup
// before answered runs. A node that leaves cancels its requests: each
// lookup they belonged to ends without reporting, takes back the buffers
// parked on them, and returns to the list once its last one is cancelled.
//
// The list is per network and not per node because it is then as deep as
// the network's real concurrency. Per-node lists were measured when this
// design was prototyped (ISSUE 23): faster still — 0.905 s against 0.97 s
// a pass of the sim-traffic benchmark workload — but they park ≈ 14 KB
// times a node's hourly refresh burst on every node, and peak_rss_mb read
// ×1.25, ×1.66, ×1.60 and ×1.19 on the four workloads (what PR 12 found
// for envelopes that kept their contact lists). The per-network list reads
// 22.4 / 30.4 / 34.0 / 57.5 MB there, against 21.9 / 30.9 / 33.9 / 55.8 MB
// for the per-response allocations it replaces.
type lookup struct {
	node   *Node
	target id.ID
	kind   lookupKind

	// candidates holds every contact this lookup has accepted, sorted
	// ascending by XOR distance to target. Distances are unique per
	// identifier, so the sorted position also answers "seen before?".
	candidates []candidate
	inflight   int
	responded  int
	finished   bool

	// onComplete receives a node lookup's result. The result is built
	// only if somebody takes it.
	onComplete func(closest []Contact, responded int)
	// onValue receives a value lookup's outcome: the value from the first
	// node that had it, or a miss once the lookup has converged.
	onValue func(value []byte, ok bool)

	buffers [][]Contact // idle response buffers, at most alpha of them
	next    *lookup     // free-list link
}

// lookupPool is the free list of lookup records of one simnet.Network,
// installed in the network's Protocol slot by the first node created on it.
// A network is driven by one goroutine, so the list needs no lock, and two
// networks never share one.
type lookupPool struct {
	free *lookup
}

func lookupPoolOf(net *simnet.Network) *lookupPool {
	if net.Protocol == nil {
		net.Protocol = new(lookupPool)
	}
	if pool, ok := net.Protocol.(*lookupPool); ok {
		return pool
	}
	return new(lookupPool) // the slot is somebody else's: this node keeps its own list
}

func (n *Node) newLookup(target id.ID, kind lookupKind) *lookup {
	l := n.lookups.free
	if l != nil {
		n.lookups.free, l.next = l.next, nil
	} else {
		l = new(lookup)
	}
	l.node, l.target, l.kind = n, target, kind
	if cap(l.candidates) == 0 {
		l.candidates = make([]candidate, 0, 2*n.cfg.K)
	}
	return l
}

// retire recycles the record if the lookup is over and no request is out.
// The event handlers that drive a lookup call it once they are done with
// the record: the one place a record changes hands.
func (l *lookup) retire() {
	if !l.finished || l.inflight != 0 {
		return
	}
	pool := l.node.lookups
	*l = lookup{candidates: l.candidates[:0], buffers: l.buffers, next: pool.free}
	pool.free = l
}

func (l *lookup) start() {
	n := l.node
	n.seeds = n.table.AppendClosest(n.seeds[:0], l.target, n.cfg.K, id.ID{})
	l.merge(n.seeds)
	l.step()
	l.retire()
}

// search returns the index at which the contact with this identifier and
// distance prefix sits in candidates[from:], or belongs if it is not
// there, and whether it is there. Everything before from must be closer to
// the target than the contact. The cached prefixes order almost any two
// contacts; identifiers are only read on a tie.
func (l *lookup) search(from int, prefix uint64, nodeID *id.ID) (int, bool) {
	lo, hi := from, len(l.candidates)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := &l.candidates[mid]
		switch {
		case c.prefix < prefix:
			lo = mid + 1
		case c.prefix > prefix:
			hi = mid
		case c.contact.ID.Equal(*nodeID):
			return mid, true
		case c.contact.ID.CloserTo(l.target, *nodeID):
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// merge inserts newly discovered contacts in distance order. The lookup's
// own node and contacts already held are skipped.
//
// A responder sends its list sorted by distance to the target, which is
// the order of candidates, so the merge keeps a cursor: each contact is
// searched for only behind the place the previous one took. A contact
// that is not farther than what the cursor has passed merely sends the
// cursor back to the start, so a list in any order — unsorted, repeating,
// hostile — ends up exactly where inserting its contacts one at a time
// would put them. The slot under the cursor is tried before the search:
// a sorted response mostly names contacts the lookup already holds, one
// after the other, so the contact is often that slot's, or belongs there.
func (l *lookup) merge(contacts []Contact) {
	self := &l.node.self.ID
	selfPrefix := self.XorPrefix(l.target)
	cursor := 0
	for i := range contacts {
		c := &contacts[i]
		prefix := c.ID.XorPrefix(l.target)
		if prefix == selfPrefix && c.ID.Equal(*self) {
			continue
		}
		if cursor > 0 && l.candidates[cursor-1].prefix >= prefix {
			cursor = 0
		}
		idx, found := cursor, false
		if cursor < len(l.candidates) {
			switch at := &l.candidates[cursor]; {
			case at.prefix > prefix:
				// Everything before the cursor is closer: c belongs here.
			case at.prefix == prefix && at.contact.ID.Equal(c.ID):
				found = true
			default:
				idx, found = l.search(cursor, prefix, &c.ID)
			}
		}
		cursor = idx
		if !found {
			l.candidates = append(l.candidates, candidate{})
			copy(l.candidates[idx+1:], l.candidates[idx:])
			l.candidates[idx] = candidate{contact: *c, prefix: prefix, state: stateUnqueried}
		}
		cursor++ // c itself sits at idx
	}
}

// step drives the state machine: fire queries up to the parallelism limit,
// and detect termination.
func (l *lookup) step() {
	if l.finished {
		return
	}
	if !l.node.running {
		l.finish()
		return
	}
	cfg := &l.node.cfg
	if l.responded >= cfg.K || l.converged() {
		l.finish()
		return
	}
	for l.inflight < cfg.Alpha {
		next := l.nextUnqueried()
		if next < 0 {
			break
		}
		l.query(next)
	}
	if l.inflight == 0 {
		// No queries in flight and none startable: no more progress.
		l.finish()
	}
}

// converged reports the standard termination rule: among the k closest
// non-failed candidates there is nothing left to query.
func (l *lookup) converged() bool {
	k := l.node.cfg.K
	checked := 0
	for i := range l.candidates {
		c := &l.candidates[i]
		if c.state == stateFailed {
			continue
		}
		if c.state != stateResponded {
			return false
		}
		checked++
		if checked >= k {
			return true
		}
	}
	return checked > 0
}

// nextUnqueried returns the index of the closest candidate not yet
// queried, or -1.
func (l *lookup) nextUnqueried() int {
	for i := range l.candidates {
		if l.candidates[i].state == stateUnqueried {
			return i
		}
	}
	return -1
}

func (l *lookup) query(i int) {
	c := &l.candidates[i]
	c.state = stateInflight
	l.inflight++
	kind := msgFindNode
	if l.kind == lookupValue {
		kind = msgFindValue
	}
	l.node.sendRequest(c.contact, kind, l.target, nil, l)
}

// takeBuffer hands out an empty response buffer for a request envelope:
// an idle one if the lookup has one, else a new one of k contacts. A nil
// lookup (a fire-and-forget request) has none to give.
func (l *lookup) takeBuffer() []Contact {
	if l == nil {
		return nil
	}
	if last := len(l.buffers) - 1; last >= 0 {
		buf := l.buffers[last]
		l.buffers = l.buffers[:last]
		return buf
	}
	return make([]Contact, 0, l.node.cfg.K)
}

// putBuffer takes back the buffer a response arrived in: the round trip
// is over and the buffer is the lookup's again.
func (l *lookup) putBuffer(buf []Contact) {
	if cap(buf) > 0 {
		l.buffers = append(l.buffers, buf[:0])
	}
}

// answered is the continuation of query: resp is the response of the
// candidate with identifier from, or nil if the request failed.
func (l *lookup) answered(from id.ID, resp *envelope) {
	l.inflight--
	if l.finished {
		// The result is out and nothing reads the candidates again: a
		// late response is not merged, only its buffer comes back.
		if resp != nil {
			l.putBuffer(resp.Contacts)
		}
		return
	}
	idx, _ := l.search(0, from.XorPrefix(l.target), &from)
	c := &l.candidates[idx]
	if resp == nil {
		c.state = stateFailed
		l.step()
		return
	}
	c.state = stateResponded
	l.responded++
	if resp.Found {
		l.putBuffer(resp.Contacts)
		l.finished = true
		if l.onValue != nil {
			l.onValue(resp.Value, true)
		}
		return
	}
	l.merge(resp.Contacts)
	l.putBuffer(resp.Contacts) // before step looks for one to send out
	l.step()
}

// finish reports the k closest successfully contacted nodes.
func (l *lookup) finish() {
	if l.finished {
		return
	}
	l.finished = true
	n := l.node
	n.stats.LookupsCompleted++
	if l.onValue != nil {
		l.onValue(nil, false)
	}
	if l.onComplete == nil {
		return
	}
	closest := make([]Contact, 0, n.cfg.K)
	for i := range l.candidates {
		c := &l.candidates[i]
		if c.state != stateResponded {
			continue
		}
		closest = append(closest, c.contact)
		if len(closest) == n.cfg.K {
			break
		}
	}
	l.onComplete(closest, l.responded)
}
