package kademlia

import "kadre/internal/id"

// The iterative lookup procedure (§4.1 of the paper): starting from the k
// closest known contacts, query alpha of them in parallel; each response
// contributes new, closer candidates; the lookup converges on the target
// and terminates once the k closest discovered nodes have all been
// successfully contacted (or no progress is possible), or — for value
// lookups — as soon as any node returns the value.

type lookupKind int

const (
	lookupNode lookupKind = iota + 1
	lookupValue
)

type candidateState int

const (
	stateUnqueried candidateState = iota + 1
	stateInflight
	stateResponded
	stateFailed
)

type candidate struct {
	contact Contact
	state   candidateState
}

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

	// claim, when set, must approve every candidate before it joins this
	// lookup; disjoint-path lookups share one claim set across paths so
	// no two paths traverse the same node.
	claim func(id.ID) bool

	onComplete func(closest []Contact, responded int)
	onValue    func(value []byte)
}

func newLookup(n *Node, target id.ID, kind lookupKind, onValue func([]byte)) *lookup {
	return &lookup{
		node:       n,
		target:     target,
		kind:       kind,
		candidates: make([]candidate, 0, 2*n.cfg.K),
		onValue:    onValue,
	}
}

func (l *lookup) start() {
	n := l.node
	n.seeds = n.table.AppendClosest(n.seeds[:0], l.target, n.cfg.K, id.ID{})
	for _, c := range n.seeds {
		l.addCandidate(c)
	}
	l.step()
}

// position returns the index at which the contact with this identifier
// sits in candidates, or belongs if it is not there. The 64-bit distance
// prefixes order almost any two contacts; full identifiers settle a tie.
func (l *lookup) position(nodeID id.ID) int {
	prefix := nodeID.XorPrefix(l.target)
	lo, hi := 0, len(l.candidates)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := &l.candidates[mid].contact
		if p := c.ID.XorPrefix(l.target); p < prefix || (p == prefix && c.ID.CloserTo(l.target, nodeID)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// addCandidate inserts a newly discovered contact in distance order. The
// lookup's own node and contacts already held are skipped; a contact the
// claim set refuses is skipped too, and refused again if it turns up again.
func (l *lookup) addCandidate(c Contact) {
	if c.ID.Equal(l.node.self.ID) {
		return
	}
	idx := l.position(c.ID)
	if idx < len(l.candidates) && l.candidates[idx].contact.ID.Equal(c.ID) {
		return
	}
	if l.claim != nil && !l.claim(c.ID) {
		return // another disjoint path owns this node
	}
	l.candidates = append(l.candidates, candidate{})
	copy(l.candidates[idx+1:], l.candidates[idx:])
	l.candidates[idx] = candidate{contact: c, state: stateUnqueried}
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
	cfg := l.node.cfg
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
	c := &l.candidates[l.position(from)]
	if resp == nil {
		c.state = stateFailed
		l.step()
		return
	}
	c.state = stateResponded
	l.responded++
	if resp.Found {
		if !l.finished {
			l.finished = true
			if l.onValue != nil {
				l.onValue(resp.Value)
			}
		}
		return
	}
	for _, nc := range resp.Contacts {
		l.addCandidate(nc)
	}
	l.step()
}

// finish reports the k closest successfully contacted nodes.
func (l *lookup) finish() {
	if l.finished {
		return
	}
	l.finished = true
	closest := make([]Contact, 0, l.node.cfg.K)
	for i := range l.candidates {
		c := &l.candidates[i]
		if c.state != stateResponded {
			continue
		}
		closest = append(closest, c.contact)
		if len(closest) == l.node.cfg.K {
			break
		}
	}
	if l.onComplete != nil {
		l.onComplete(closest, l.responded)
	}
}
