package kademlia

import (
	"fmt"
	"math/bits"

	"kadre/internal/id"
	"kadre/internal/simnet"
)

// Contact is a routing-table entry: another node's identifier and network
// address.
type Contact struct {
	ID   id.ID
	Addr simnet.Addr
}

// String implements fmt.Stringer.
func (c Contact) String() string {
	return fmt.Sprintf("%s@%d", c.ID, c.Addr)
}

// entry is a live routing-table slot with staleness bookkeeping.
type entry struct {
	contact Contact
	// top caches topWord(contact.ID). A bucket is searched and ranked on
	// it: an identifier is a 40-byte value that every id.ID method copies
	// before it reads a word of it, and a scan of k entries should not.
	top uint64
	// fails counts consecutive failed communication attempts; the contact
	// is evicted when fails reaches the staleness limit s.
	fails int32
	// pingInFlight suppresses duplicate liveness probes for this entry.
	pingInFlight bool
}

// stale reports whether the entry has used up its staleness budget.
func (e *entry) stale(limit int) bool { return int(e.fails) >= limit }

func newEntry(c Contact) entry { return entry{contact: c, top: topWord(c.ID)} }

// topWord returns the 64 most significant bits of an identifier: its
// distance prefix to zero, and a.XorPrefix(b) == topWord(a) ^ topWord(b).
func topWord(a id.ID) uint64 { return a.XorPrefix(id.ID{}) }

// bucket is one k-bucket: entries in least-recently-seen-first order plus
// a bounded replacement cache of contacts that arrived while full.
//
// Entries are stored by value: 64 bytes each, pointer-free and contiguous,
// so finding a contact or ranking a bucket walks one array instead of
// chasing k pointers, and moving an entry to the most-recently-seen end is
// a memmove of at most k-1 entries. No pointer into entries outlives the
// table call that took it.
type bucket struct {
	entries      []entry
	replacements []Contact // oldest first; newest appended at the end
}

// find returns the position of nodeID among the entries, or -1. A nil
// bucket (one the table never allocated, see RoutingTable.buckets) is
// empty.
func (b *bucket) find(nodeID id.ID) int {
	if b == nil {
		return -1
	}
	top := topWord(nodeID)
	// From the most-recently-seen end: whoever is heard from now was most
	// likely heard from lately.
	for i := len(b.entries) - 1; i >= 0; i-- {
		if e := &b.entries[i]; e.top == top && e.contact.ID.Equal(nodeID) {
			return i
		}
	}
	return -1
}

// touch moves entry i to the most-recently-seen end and returns it there.
func (b *bucket) touch(i int) *entry {
	last := len(b.entries) - 1
	e := b.entries[i]
	copy(b.entries[i:], b.entries[i+1:])
	b.entries[last] = e
	return &b.entries[last]
}

// replace drops entry i and admits c as the most recently seen.
func (b *bucket) replace(i int, c Contact) {
	*b.touch(i) = newEntry(c)
}

// findStale returns the index of the first entry with fails >= limit that
// has no ping outstanding, or -1.
func (b *bucket) findStale(limit int) int {
	for i := range b.entries {
		if e := &b.entries[i]; e.stale(limit) && !e.pingInFlight {
			return i
		}
	}
	return -1
}

func (b *bucket) removeReplacement(nodeID id.ID) {
	for i, c := range b.replacements {
		if c.ID.Equal(nodeID) {
			b.replacements = append(b.replacements[:i], b.replacements[i+1:]...)
			return
		}
	}
}

// pushReplacement appends c as the newest replacement, dropping the oldest
// beyond limit. A full cache shifts down in place: re-slicing the oldest
// away instead would creep the window through its backing array and
// reallocate the cache every few newcomers.
func (b *bucket) pushReplacement(c Contact, limit int) {
	n := len(b.replacements)
	if n < limit {
		b.replacements = append(b.replacements, c)
	} else if n > 0 {
		copy(b.replacements, b.replacements[1:])
		b.replacements[n-1] = c
	}
}

// RoutingTable is a node's view of the network: Bits k-buckets indexed by
// XOR distance (bucket i holds contacts with 2^i <= dist < 2^(i+1)).
// It is not safe for concurrent use; the simulation is single-threaded.
type RoutingTable struct {
	self id.ID
	cfg  Config
	// buckets is stored by depth c = Bits-1-i (the length of the prefix a
	// contact shares with self) and allocated on demand: Observe grows it
	// on the first insert into a deeper bucket, and a bucket past its end
	// is empty. A network of n nodes populates about log2(n) depths, so a
	// table carries ~10 buckets instead of Bits = 160.
	buckets []bucket
	size    int
	// occupied has one bit per bucket, set while the bucket holds a live
	// contact, so that AppendClosest steps over empty buckets a word at a
	// time. Bits are numbered from the top like id.XorWords: depth c is
	// bit 63-c%64 of word c/64.
	occupied [id.MaxBytes / 8]uint64
	// ranked is AppendClosest's scratch: one bucket's contacts keyed by
	// distance while they are sorted.
	ranked []rankedContact
}

// rankedContact is a bucket entry, by position, with the 64 most
// significant bits of its XOR distance to a lookup target: enough to order
// almost any two contacts without touching their identifiers. It holds no
// pointer, so sorting the scratch costs the collector nothing.
type rankedContact struct {
	prefix uint64
	entry  int
}

// NewRoutingTable builds an empty table for the given owner.
func NewRoutingTable(self id.ID, cfg Config) *RoutingTable {
	cfg = cfg.WithDefaults()
	return &RoutingTable{self: self, cfg: cfg}
}

// Self returns the owner's identifier.
func (rt *RoutingTable) Self() id.ID { return rt.self }

// Size returns the number of live contacts across all buckets.
func (rt *RoutingTable) Size() int { return rt.size }

// Contains reports whether nodeID is a live contact.
func (rt *RoutingTable) Contains(nodeID id.ID) bool {
	if nodeID.Equal(rt.self) {
		return false
	}
	return rt.bucketFor(nodeID).find(nodeID) >= 0
}

// ObserveResult reports the consequences of an Observe call.
type ObserveResult struct {
	// Inserted is true when the contact now occupies a bucket slot.
	Inserted bool
	// NeedsPing, when its ID is not the zero value, is the
	// least-recently-seen entry of the full bucket; the caller should ping
	// it to test liveness. The entry is marked ping-in-flight until
	// RecordSuccess or RecordFailure.
	NeedsPing Contact
}

// Observe records direct communication with a contact, per the protocol:
// "when a Kademlia node receives any message (request or reply) from
// another node, it updates the appropriate k-bucket for the sender's node
// ID". A known contact moves to most-recently-seen and its failure count
// resets. An unknown contact fills a free slot, or directly replaces a
// stale (failure count >= s) entry of a full bucket; otherwise it joins
// the replacement cache and the least-recently-seen live entry is
// nominated for a liveness ping.
func (rt *RoutingTable) Observe(c Contact) ObserveResult {
	if c.ID.Equal(rt.self) || c.ID.IsZeroValue() {
		return ObserveResult{}
	}
	depth := rt.cfg.Bits - 1 - rt.self.BucketIndex(c.ID)
	if depth >= len(rt.buckets) {
		// First contact this deep: it is inserted below, so the growth is
		// never wasted on a bucket that stays empty.
		rt.buckets = append(rt.buckets, make([]bucket, depth+1-len(rt.buckets))...)
	}
	b := &rt.buckets[depth]
	if i := b.find(c.ID); i >= 0 {
		e := b.touch(i)
		e.fails = 0
		e.contact = c // refresh address
		return ObserveResult{Inserted: true}
	}
	if len(b.entries) < rt.cfg.K {
		if b.entries == nil {
			// Once a bucket has an entry it tends to fill: allocate its
			// array once, at capacity k, not by append doubling.
			b.entries = make([]entry, 0, rt.cfg.K)
		}
		b.entries = append(b.entries, newEntry(c))
		rt.size++
		rt.setOccupied(depth, true)
		return ObserveResult{Inserted: true}
	}
	// Bucket full: a stale entry (>= s consecutive failures) is replaced
	// outright by the newcomer we just heard from.
	if i := b.findStale(rt.cfg.StalenessLimit); i >= 0 {
		b.replace(i, c)
		return ObserveResult{Inserted: true}
	}
	// Otherwise stash in the replacement cache (dropping the oldest
	// beyond capacity) and nominate the least-recently-seen entry for a
	// liveness check.
	b.removeReplacement(c.ID)
	b.pushReplacement(c, rt.cfg.ReplacementCacheSize)
	lrs := &b.entries[0]
	if lrs.pingInFlight {
		return ObserveResult{}
	}
	lrs.pingInFlight = true
	return ObserveResult{NeedsPing: lrs.contact}
}

// RecordSuccess resets a contact's staleness budget and marks it
// most-recently-seen after a successful exchange initiated by us.
func (rt *RoutingTable) RecordSuccess(nodeID id.ID) {
	if nodeID.Equal(rt.self) {
		return
	}
	b := rt.bucketFor(nodeID)
	i := b.find(nodeID)
	if i < 0 {
		return
	}
	e := b.touch(i)
	e.fails = 0
	e.pingInFlight = false
}

// RecordFailure charges one failed communication attempt against a
// contact. After s consecutive failures the contact is stale: it is
// evicted in favour of the freshest replacement-cache contact when one
// exists. With an empty replacement cache the stale entry is retained —
// a node never evicts into a hole, exactly like the Mainline DHT (BEP 5,
// the paper's reference [17]) keeps "bad" nodes until replacements
// arrive. Retained stale entries are the first to be replaced by any
// newly observed contact, and a later successful exchange fully
// rehabilitates them. RecordFailure reports whether the contact was
// evicted.
//
// This retention rule is what lets message loss *increase* connectivity
// (the paper's Simulation J): failures rotate bucket membership instead
// of shrinking tables, so the topology re-wires toward a more even
// in-degree distribution.
func (rt *RoutingTable) RecordFailure(nodeID id.ID) bool {
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
		e.fails++ // cap the counter at s; staleness is already decided
	}
	if !e.stale(rt.cfg.StalenessLimit) {
		return false
	}
	n := len(b.replacements)
	if n == 0 {
		return false // no substitute: keep the stale entry (BEP 5 rule)
	}
	promoted := b.replacements[n-1]
	b.replacements = b.replacements[:n-1]
	b.replace(i, promoted)
	return true
}

// IsStale reports whether a contact is present but marked stale (failure
// count at the staleness limit).
func (rt *RoutingTable) IsStale(nodeID id.ID) bool {
	if nodeID.Equal(rt.self) {
		return false
	}
	b := rt.bucketFor(nodeID)
	i := b.find(nodeID)
	return i >= 0 && b.entries[i].stale(rt.cfg.StalenessLimit)
}

// StaleCount returns the number of stale entries across all buckets.
func (rt *RoutingTable) StaleCount() int {
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

// Remove unconditionally drops a contact (used by tests and by node
// shutdown paths); the replacement cache is not consulted.
func (rt *RoutingTable) Remove(nodeID id.ID) bool {
	if nodeID.Equal(rt.self) {
		return false
	}
	depth := rt.cfg.Bits - 1 - rt.self.BucketIndex(nodeID)
	if depth >= len(rt.buckets) {
		return false
	}
	b := &rt.buckets[depth]
	i := b.find(nodeID)
	if i < 0 {
		return false
	}
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
	rt.size--
	rt.setOccupied(depth, len(b.entries) > 0)
	return true
}

// Closest returns up to count live contacts closest to target under the
// XOR metric, ascending by distance.
func (rt *RoutingTable) Closest(target id.ID, count int) []Contact {
	return rt.AppendClosest(make([]Contact, 0, max(0, min(count, rt.size))), target, count, id.ID{})
}

// AppendClosest appends to dst up to count live contacts closest to target
// under the XOR metric, ascending by distance, leaving out the contact
// whose identifier is exclude (the zero ID excludes nobody), and returns
// the extended slice. With room in dst it allocates nothing.
//
// It never orders the whole table. A contact in bucket i differs from self
// first at bit i, so its distance to target agrees with d = self XOR target
// above bit i and differs from d at bit i: where d has a 1 there the whole
// bucket is closer to target than every lower bucket, where d has a 0 it
// is farther. Bucket ranges being disjoint, walking the 1-bit buckets from
// the highest down and then the 0-bit buckets from the lowest up visits
// contacts in ascending distance bucket by bucket; only the contacts
// inside one bucket need sorting, and the walk stops as soon as count are
// found.
func (rt *RoutingTable) AppendClosest(dst []Contact, target id.ID, count int, exclude id.ID) []Contact {
	d := rt.self.XorWords(target)
	want := len(dst) + count
	// d, occupied and buckets all number from the top (see occupied):
	// ascending bit position is ascending depth, descending bucket index.
	for w := 0; w < len(d) && len(dst) < want; w++ {
		for m := rt.occupied[w] & d[w]; m != 0 && len(dst) < want; {
			lz := bits.LeadingZeros64(m)
			m &^= 1 << (63 - lz)
			dst = rt.appendBucket(dst, &rt.buckets[64*w+lz], &target, want, &exclude)
		}
	}
	for w := len(d) - 1; w >= 0 && len(dst) < want; w-- {
		for m := rt.occupied[w] &^ d[w]; m != 0 && len(dst) < want; {
			tz := bits.TrailingZeros64(m)
			m &= m - 1
			dst = rt.appendBucket(dst, &rt.buckets[64*w+63-tz], &target, want, &exclude)
		}
	}
	return dst
}

// appendBucket appends b's contacts other than exclude to dst in ascending
// distance to target until dst holds want. A bucket never holds more than
// k contacts, few enough that an insertion sort on the distance prefixes
// beats a general sort calling back for every comparison.
func (rt *RoutingTable) appendBucket(dst []Contact, b *bucket, target *id.ID, want int, exclude *id.ID) []Contact {
	targetTop, excludeTop := topWord(*target), topWord(*exclude)
	ranked := rt.ranked[:0]
	for i := range b.entries {
		if e := &b.entries[i]; e.top != excludeTop || !e.contact.ID.Equal(*exclude) {
			ranked = append(ranked, rankedContact{e.top ^ targetTop, i})
		}
	}
	rt.ranked = ranked
	for i := 1; i < len(ranked); i++ {
		r := ranked[i]
		j := i
		for ; j > 0; j-- {
			p := ranked[j-1]
			// Equal prefixes are identifiers that agree in their top 64
			// bits: only then do the full identifiers decide.
			if p.prefix < r.prefix || p.prefix == r.prefix &&
				!b.entries[r.entry].contact.ID.CloserTo(*target, b.entries[p.entry].contact.ID) {
				break
			}
			ranked[j] = p
		}
		ranked[j] = r
	}
	for _, r := range ranked {
		if len(dst) == want {
			break
		}
		dst = append(dst, b.entries[r.entry].contact)
	}
	return dst
}

// Contacts returns every live contact, bucket by bucket.
func (rt *RoutingTable) Contacts() []Contact {
	return rt.AppendContacts(make([]Contact, 0, rt.size))
}

// AppendContacts appends every live contact to dst, bucket by bucket, and
// returns the extended slice: Contacts without the allocation, for
// callers that walk many tables through one buffer.
func (rt *RoutingTable) AppendContacts(dst []Contact) []Contact {
	// Ascending bucket index is descending depth.
	for c := len(rt.buckets) - 1; c >= 0; c-- {
		for i := range rt.buckets[c].entries {
			dst = append(dst, rt.buckets[c].entries[i].contact)
		}
	}
	return dst
}

// BucketLen returns the number of live contacts in bucket i.
func (rt *RoutingTable) BucketLen(i int) int {
	if b := rt.bucket(i); b != nil {
		return len(b.entries)
	}
	return 0
}

// BucketCount returns the number of buckets (the id bit-length), allocated
// or not.
func (rt *RoutingTable) BucketCount() int { return rt.cfg.Bits }

// RefreshTargets returns the bucket indexes that periodic refresh should
// probe: every bucket from just below the lowest non-empty one upward.
// Refreshing all Bits buckets (the literal protocol) would waste most
// lookups on distance ranges where no nodes can exist; this covers every
// populated range plus one deeper bucket, and is documented as a
// substitution in DESIGN.md.
func (rt *RoutingTable) RefreshTargets() []int {
	lowest := -1
	for c := len(rt.buckets) - 1; c >= 0; c-- {
		if len(rt.buckets[c].entries) > 0 {
			lowest = rt.cfg.Bits - 1 - c
			break
		}
	}
	if lowest < 0 {
		return nil
	}
	if lowest > 0 {
		lowest--
	}
	out := make([]int, 0, rt.cfg.Bits-lowest)
	for i := lowest; i < rt.cfg.Bits; i++ {
		out = append(out, i)
	}
	return out
}

// setOccupied records whether the bucket at depth c holds a live contact.
func (rt *RoutingTable) setOccupied(c int, on bool) {
	if on {
		rt.occupied[c/64] |= 1 << (63 - c%64)
	} else {
		rt.occupied[c/64] &^= 1 << (63 - c%64)
	}
}

// bucketFor returns the bucket nodeID belongs in, or nil (an empty
// bucket, see bucket.find) when it is self or the bucket was never
// allocated.
func (rt *RoutingTable) bucketFor(nodeID id.ID) *bucket {
	i := rt.self.BucketIndex(nodeID)
	if i < 0 {
		return nil
	}
	return rt.bucket(i)
}

// bucket returns bucket i, or nil when no contact ever reached that deep.
func (rt *RoutingTable) bucket(i int) *bucket {
	c := rt.cfg.Bits - 1 - i
	if c >= len(rt.buckets) {
		return nil
	}
	return &rt.buckets[c]
}
