package kademlia

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"kadre/internal/id"
	"kadre/internal/simnet"
)

// referenceTable is the routing table as it was kept before buckets were
// ordered by identifier: every bucket's entries in least-recently-seen-first
// order, a sighting moving its entry to the end, the ping nominee and the
// first stale entry found by position. Its closest list collects and sorts
// the whole table. It is kept only as the oracle RoutingTable is fuzzed
// against.
type referenceTable struct {
	self    id.ID
	cfg     Config
	buckets map[int]*referenceBucket // by bucket index
}

type referenceBucket struct {
	entries      []entry // least recently seen first; seen is unused
	replacements []Contact
}

func newReferenceTable(self id.ID, cfg Config) *referenceTable {
	return &referenceTable{self: self, cfg: cfg.WithDefaults(), buckets: map[int]*referenceBucket{}}
}

func (rt *referenceTable) bucketFor(nodeID id.ID) *referenceBucket {
	i := rt.self.BucketIndex(nodeID)
	if rt.buckets[i] == nil {
		rt.buckets[i] = &referenceBucket{}
	}
	return rt.buckets[i]
}

func (b *referenceBucket) find(nodeID id.ID) int {
	for i := len(b.entries) - 1; i >= 0; i-- {
		if b.entries[i].contact.ID.Equal(nodeID) {
			return i
		}
	}
	return -1
}

func (b *referenceBucket) touch(i int) *entry {
	last := len(b.entries) - 1
	e := b.entries[i]
	copy(b.entries[i:], b.entries[i+1:])
	b.entries[last] = e
	return &b.entries[last]
}

func (b *referenceBucket) replace(i int, c Contact) { *b.touch(i) = entry{contact: c} }

func (b *referenceBucket) findStale(limit int) int {
	for i := range b.entries {
		if e := &b.entries[i]; e.stale(limit) && !e.pingInFlight {
			return i
		}
	}
	return -1
}

func (b *referenceBucket) removeReplacement(nodeID id.ID) {
	for i, c := range b.replacements {
		if c.ID.Equal(nodeID) {
			b.replacements = append(b.replacements[:i], b.replacements[i+1:]...)
			return
		}
	}
}

func (b *referenceBucket) pushReplacement(c Contact, limit int) {
	if len(b.replacements) < limit {
		b.replacements = append(b.replacements, c)
	} else if limit > 0 {
		b.replacements = append(b.replacements[1:], c)
	}
}

func (rt *referenceTable) Observe(c Contact) Contact {
	if c.ID.Equal(rt.self) || c.ID.IsZeroValue() {
		return Contact{}
	}
	b := rt.bucketFor(c.ID)
	if i := b.find(c.ID); i >= 0 {
		e := b.touch(i)
		e.fails = 0
		e.contact = c
		return Contact{}
	}
	if len(b.entries) < rt.cfg.K {
		b.removeReplacement(c.ID)
		b.entries = append(b.entries, entry{contact: c})
		return Contact{}
	}
	if i := b.findStale(rt.cfg.StalenessLimit); i >= 0 {
		b.replace(i, c)
		return Contact{}
	}
	b.removeReplacement(c.ID)
	b.pushReplacement(c, rt.cfg.ReplacementCacheSize)
	lrs := &b.entries[0]
	if lrs.pingInFlight {
		return Contact{}
	}
	lrs.pingInFlight = true
	return lrs.contact
}

func (rt *referenceTable) RecordSuccess(nodeID id.ID) {
	if nodeID.Equal(rt.self) {
		return
	}
	b := rt.bucketFor(nodeID)
	if i := b.find(nodeID); i >= 0 {
		e := b.touch(i)
		e.fails = 0
		e.pingInFlight = false
	}
}

func (rt *referenceTable) RecordFailure(nodeID id.ID) bool {
	if nodeID.Equal(rt.self) {
		return false
	}
	b := rt.bucketFor(nodeID)
	i := b.find(nodeID)
	if i < 0 {
		return false
	}
	e := &b.entries[i]
	e.pingInFlight = false
	if !e.stale(rt.cfg.StalenessLimit) {
		e.fails++
	}
	if !e.stale(rt.cfg.StalenessLimit) || len(b.replacements) == 0 {
		return false
	}
	n := len(b.replacements)
	promoted := b.replacements[n-1]
	b.replacements = b.replacements[:n-1]
	b.replace(i, promoted)
	return true
}

func (rt *referenceTable) lookup(nodeID id.ID) *entry {
	if nodeID.Equal(rt.self) {
		return nil
	}
	b := rt.bucketFor(nodeID)
	if i := b.find(nodeID); i >= 0 {
		return &b.entries[i]
	}
	return nil
}

func (rt *referenceTable) StaleCount() int {
	count := 0
	for _, b := range rt.buckets {
		for i := range b.entries {
			if b.entries[i].stale(rt.cfg.StalenessLimit) {
				count++
			}
		}
	}
	return count
}

func (rt *referenceTable) Size() int {
	size := 0
	for _, b := range rt.buckets {
		size += len(b.entries)
	}
	return size
}

func (rt *referenceTable) Contacts() []Contact {
	var out []Contact
	for _, b := range rt.buckets {
		for _, e := range b.entries {
			out = append(out, e.contact)
		}
	}
	return out
}

func (rt *referenceTable) Closest(target id.ID, count int, exclude id.ID) []Contact {
	all := rt.Contacts()
	sort.Slice(all, func(i, j int) bool { return all[i].ID.CloserTo(target, all[j].ID) })
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

// tableFuzzID maps two bytes to an identifier. The top three bits of x
// pick the most significant byte's top bits, so contacts spread over a few
// buckets of one another and of the owner; the other five land in the
// middle of the top word, where a bucket's identifiers split; y fills the
// last byte, which at 160 bits lies past the top word, so identifiers with
// one x tie on their top 64 bits.
func tableFuzzID(bits int, x, y byte) id.ID {
	image := make([]byte, bits/8)
	image[0], image[4], image[len(image)-1] = x&0xe0, x<<3, y
	return id.MustNew(bits, image)
}

// checkTableStream decodes a header (bit-length, k, staleness limit,
// replacement cache size, owner) and then operations of four bytes each,
// applies every operation to a RoutingTable and to the reference, and
// compares what each returns and then the state of the bucket it touched.
// After the last operation it compares their whole observable state.
func checkTableStream(data []byte) error {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		x := data[0]
		data = data[1:]
		return x
	}
	bits := []int{64, 160}[next()%2]
	cfg := Config{Bits: bits, K: 1 + int(next()%5), StalenessLimit: 1 + int(next()%3), ReplacementCacheSize: int(next() % 4)}
	self := tableFuzzID(bits, next(), next())
	got, want := NewRoutingTable(self, cfg), newReferenceTable(self, cfg)
	// Every identifier named so far, the owner's included, once.
	seen, named := []id.ID{self}, map[id.ID]bool{self: true}
	var live []Contact
	for op := 0; len(data) > 0; op++ {
		kind, x, y, z := next(), next(), next(), next()
		nodeID := tableFuzzID(bits, x, y)
		if k := kind % 6; z&0x80 != 0 && k >= 2 && k != 5 {
			// A success, failure or response of a random identifier would
			// almost always miss the table: name a live contact instead.
			if live = got.AppendContacts(live[:0]); len(live) > 0 {
				nodeID = live[int(y)%len(live)].ID
			}
		}
		if !named[nodeID] {
			named[nodeID] = true
			seen = append(seen, nodeID)
		}
		switch kind % 6 {
		case 0, 1: // sightings are the most frequent operation
			c := Contact{ID: nodeID, Addr: simnet.Addr(z % 4)}
			if g, w := got.Observe(&c, false), want.Observe(c); g != w {
				return fmt.Errorf("op %d: Observe(%v) = %+v, want %+v", op, c, g, w)
			}
		case 2:
			// A success of a live contact: its answer, under the address
			// the table holds, must do what the reference's RecordSuccess
			// does. A success of an absent identifier changes nothing.
			if e := want.lookup(nodeID); e != nil {
				c := e.contact
				if g := got.Observe(&c, true); !g.ID.IsZeroValue() {
					return fmt.Errorf("op %d: Observe(%v, answered) of a live contact = %+v, want none", op, c, g)
				}
				want.RecordSuccess(nodeID)
			}
		case 3:
			if g, w := got.RecordFailure(nodeID), want.RecordFailure(nodeID); g != w {
				return fmt.Errorf("op %d: RecordFailure(%s) evicted %v, want %v", op, nodeID, g, w)
			}
		case 4:
			// A response to a pending request: the node's receive path
			// records the sighting and the success in one table call,
			// which must leave the table as Observe and then RecordSuccess
			// of the same contact do.
			c := Contact{ID: nodeID, Addr: simnet.Addr(z % 4)}
			g, w := got.Observe(&c, true), want.Observe(c)
			want.RecordSuccess(c.ID)
			if g != w {
				return fmt.Errorf("op %d: Observe(%v, answered) = %+v, want %+v", op, c, g, w)
			}
		case 5:
			// The target is nodeID; exclude is a named identifier, or
			// nobody when z's top bits are clear.
			exclude := id.ID{}
			if z >= 0x40 {
				exclude = seen[int(z)%len(seen)]
			}
			count := int(z%8) - 1
			g := got.AppendClosest(nil, nodeID, count, exclude)
			if err := sameContacts(g, want.Closest(nodeID, count, exclude)); err != nil {
				return fmt.Errorf("op %d: AppendClosest(%s, %d, exclude %s): %v", op, nodeID, count, exclude, err)
			}
		}
		// Every operation reads or changes the one bucket nodeID falls in.
		if err := sameBucketState(got, want, nodeID); err != nil {
			return fmt.Errorf("op %d (kind %d): %v", op, kind%6, err)
		}
	}
	return sameTableState(got, want, seen...)
}

// sameBucketState compares everything a caller can read off the bucket
// nodeID falls in: its contacts with their addresses as a set, and
// membership and staleness of each of them and of nodeID. It also checks
// the table's size, and that a bucket with a free slot holds no
// replacements (only a full bucket takes them, and none ever shrinks).
func sameBucketState(got *RoutingTable, want *referenceTable, nodeID id.ID) error {
	if got.Size() != want.Size() {
		return fmt.Errorf("Size() = %d, want %d", got.Size(), want.Size())
	}
	if err := sameProbes(got, want, nodeID); err != nil || nodeID.Equal(got.Self()) {
		return err
	}
	b, wb := got.bucketFor(nodeID), want.bucketFor(nodeID)
	n := 0
	if b != nil {
		n = len(b.entries)
		if n < got.cfg.K && len(b.replacements) != 0 {
			return fmt.Errorf("bucket of %s holds %d of k = %d entries and %d replacements", nodeID, n, got.cfg.K, len(b.replacements))
		}
	}
	if n != len(wb.entries) {
		return fmt.Errorf("bucket of %s holds %d contacts, want %d", nodeID, n, len(wb.entries))
	}
	for _, e := range wb.entries {
		if i := b.find(e.contact.ID); i < 0 || b.entries[i].contact != e.contact {
			return fmt.Errorf("bucket of %s does not hold %v", nodeID, e.contact)
		}
		if err := sameProbes(got, want, e.contact.ID); err != nil {
			return err
		}
	}
	return nil
}

// sameTableState compares everything a caller can read off the two tables:
// the contacts with their addresses as a set (the order of Contacts is not
// part of the contract), membership and staleness of every live contact and
// of the probes, which a stream names present and absent, the stale count
// and the size; and it holds every bucket with a free slot to an empty
// replacement cache.
func sameTableState(got *RoutingTable, want *referenceTable, probes ...id.ID) error {
	g, w := got.Contacts(), want.Contacts()
	for _, c := range w {
		probes = append(probes, c.ID)
	}
	if err := sameProbes(got, want, probes...); err != nil {
		return err
	}
	if g, w := got.StaleCount(), want.StaleCount(); g != w {
		return fmt.Errorf("StaleCount() = %d, want %d", g, w)
	}
	if got.Size() != len(w) {
		return fmt.Errorf("Size() = %d, want %d", got.Size(), len(w))
	}
	for i := range got.buckets {
		if b := &got.buckets[i]; len(b.entries) < got.cfg.K && len(b.replacements) != 0 {
			return fmt.Errorf("bucket at depth %d holds %d of k = %d entries and %d replacements", i, len(b.entries), got.cfg.K, len(b.replacements))
		}
	}
	byID(g)
	byID(w)
	if err := sameContacts(g, w); err != nil {
		return fmt.Errorf("Contacts(): %v", err)
	}
	return nil
}

// sameProbes compares membership and staleness of each probe.
func sameProbes(got *RoutingTable, want *referenceTable, probes ...id.ID) error {
	for _, nodeID := range probes {
		e := want.lookup(nodeID)
		if g, w := got.Contains(nodeID), e != nil; g != w {
			return fmt.Errorf("Contains(%s) = %v, want %v", nodeID, g, w)
		}
		if g, w := got.IsStale(nodeID), e != nil && e.stale(want.cfg.StalenessLimit); g != w {
			return fmt.Errorf("IsStale(%s) = %v, want %v", nodeID, g, w)
		}
	}
	return nil
}

func byID(cs []Contact) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID.Cmp(cs[j].ID) < 0 })
}

// tableSeeds are hand-made streams: header bytes are bit-length selector,
// k, staleness limit, replacement cache size and the owner's two bytes.
var tableSeeds = [][]byte{
	{},
	// 64 bits, k = 2, s = 1: fill a bucket, overflow it, fail the ping
	// nominee so a replacement is promoted, then ask for the closest.
	{0, 1, 0, 2, 0x00, 0x00,
		0, 0x80, 1, 1, 0, 0x81, 2, 1, 0, 0x82, 3, 1, 0, 0x83, 4, 1,
		3, 0x80, 1, 0, 5, 0x90, 0, 0x05},
	// 160 bits, identifiers tying on their top word in one bucket.
	{1, 4, 1, 1, 0x00, 0x00,
		0, 0x40, 1, 1, 0, 0x40, 2, 1, 0, 0x40, 3, 1, 0, 0x40, 0xff, 1,
		5, 0x40, 0x7f, 0x07, 5, 0x40, 0x02, 0x46, 3, 0x40, 2, 0, 5, 0x41, 0, 0x03},
	// 64 bits, k = 1, s = 1: two newcomers to the full bucket wait as
	// replacements; each failure of the live contact promotes the newest
	// one, so the bucket stays full while its cache empties.
	{0, 0, 0, 2, 0x00, 0x00,
		0, 0x80, 1, 1, 0, 0x81, 1, 1, 0, 0x82, 1, 1,
		3, 0x80, 1, 0, 3, 0x82, 1, 0, 5, 0x81, 0, 0x07},
	// 64 bits, k = 2, s = 1: a full bucket nominates its oldest entry
	// for a ping, the nominee answers (a response: sighting and success
	// at once), which clears its ping and makes it the newest, so the
	// next newcomer nominates the other entry.
	{0, 1, 0, 2, 0x00, 0x00,
		0, 0x80, 1, 1, 0, 0x81, 2, 1, 0, 0x82, 3, 1,
		4, 0x80, 1, 1, 0, 0x83, 4, 1, 3, 0x81, 2, 0, 5, 0x90, 0, 0x05},
}

// FuzzRoutingTableVsReference: for any stream of sightings, successes,
// failures, closest-queries and responses (a sighting and a success of one
// contact, back to back) at 64 or 160 bits, a table whose buckets are kept
// in identifier order with recency stamps must answer exactly like one
// whose buckets are kept in recency order: the same closest lists in the
// same order, the same ping nominees and evictions, the same membership
// and staleness, and the same contacts.
func FuzzRoutingTableVsReference(f *testing.F) {
	for _, seed := range tableSeeds {
		f.Add(seed)
	}
	// Long random streams, so that a plain test run already churns full
	// buckets for a while.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 6+4*300)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		if err := checkTableStream(data); err != nil {
			t.Fatal(err)
		}
	})
}
