package kademlia

import "kadre/internal/id"

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
// Records come from the network's pool and go back to it exactly when
// finished && inflight == 0 — the result is out and no request record
// points at it any more — keeping their candidates array, so a
// steady-state lookup allocates none.
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

	next *lookup // pool link
}

func (n *Node) newLookup(target id.ID, kind lookupKind) *lookup {
	l := n.pool.lookups
	if l != nil {
		n.pool.lookups, l.next = l.next, nil
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
	pl := l.node.pool
	*l = lookup{candidates: l.candidates[:0], next: pl.lookups}
	pl.lookups = l
}

func (l *lookup) start() {
	n, pl := l.node, l.node.pool
	pl.seeds = n.table.AppendClosest(pl.seeds[:0], l.target, n.cfg.K, id.ID{})
	l.merge(pl.seeds)
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

// answered is the continuation of query: resp is the response of the
// candidate with identifier from, or nil if the request failed.
func (l *lookup) answered(from id.ID, resp *envelope) {
	l.inflight--
	if l.finished {
		return // the result is out: a late response is not merged
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
		l.finished = true
		if l.onValue != nil {
			l.onValue(resp.Value, true)
		}
		return
	}
	l.merge(resp.Contacts)
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
