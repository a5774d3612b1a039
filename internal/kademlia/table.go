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
	// seen is the table's recency stamp of the last sighting: inserting
	// the contact or hearing from it stores the table's next stamp here,
	// so the smallest stamp of a bucket marks its least-recently-seen
	// entry without the entries ever moving.
	seen uint64
	// fails counts consecutive failed communication attempts; the contact
	// is evicted when fails reaches the staleness limit s.
	fails int32
	// pingInFlight suppresses duplicate liveness probes for this entry.
	pingInFlight bool
}

// stale reports whether the entry has used up its staleness budget.
func (e *entry) stale(limit int) bool { return int(e.fails) >= limit }

// topWord returns the 64 most significant bits of an identifier: its
// distance prefix to zero, and a.XorPrefix(b) == topWord(a) ^ topWord(b).
func topWord(a id.ID) uint64 { return a.XorPrefix(id.ID{}) }

// bucket is one k-bucket: its entries in ascending identifier order plus a
// bounded replacement cache of contacts that arrived while full.
//
// Entries are stored by value: 64 bytes each, pointer-free and contiguous.
// tops is a dense column beside them, tops[i] being the top word of entry
// i's identifier (an identifier is a 40-byte value that every id.ID method
// copies before it reads a word of it): a search or a closest-walk reads
// 8-byte keys and touches an entry only on a top-word tie or to emit it.
// Sorted identifiers are the leaves of a binary trie in order, which is
// what lets appendClosest emit a bucket by distance without sorting it.
// Recency is the entries' seen stamps, not their positions, so a sighting
// of a known contact is one store. No pointer into entries outlives the
// table call that took it.
type bucket struct {
	entries []entry
	tops    []uint64
	// replacements is oldest first, newest appended at the end. Only a full
	// bucket takes replacements, and a bucket never shrinks, so a bucket
	// with a free slot has none.
	replacements []Contact
}

// search returns the position of nodeID among the entries and whether it
// is there; when it is not, the position is where it belongs in identifier
// order. A nil bucket (one the table never allocated, see
// RoutingTable.buckets) is empty.
func (b *bucket) search(nodeID id.ID) (int, bool) {
	if b == nil {
		return 0, false
	}
	top := topWord(nodeID)
	lo, hi := 0, len(b.tops)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.tops[mid] < top {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Identifiers that agree in their top word are ordered by the rest.
	for ; lo < len(b.tops) && b.tops[lo] == top; lo++ {
		if e := &b.entries[lo].contact.ID; e.Equal(nodeID) {
			return lo, true
		} else if e.Cmp(nodeID) > 0 {
			break
		}
	}
	return lo, false
}

// find returns the position of nodeID among the entries, or -1.
func (b *bucket) find(nodeID id.ID) int {
	if i, ok := b.search(nodeID); ok {
		return i
	}
	return -1
}

// insert admits c, seen at stamp, at position i, its place in identifier
// order.
func (b *bucket) insert(i int, c Contact, stamp uint64) {
	b.entries = append(b.entries, entry{})
	copy(b.entries[i+1:], b.entries[i:])
	b.entries[i] = entry{contact: c, seen: stamp}
	b.tops = append(b.tops, 0)
	copy(b.tops[i+1:], b.tops[i:])
	b.tops[i] = topWord(c.ID)
}

// replace drops entry i and admits c as the most recently seen.
func (b *bucket) replace(i int, c Contact, stamp uint64) {
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
	b.tops = append(b.tops[:i], b.tops[i+1:]...)
	j, _ := b.search(c.ID)
	b.insert(j, c, stamp)
}

// oldest returns the index of the least-recently-seen entry of a non-empty
// bucket.
func (b *bucket) oldest() int {
	lrs := 0
	for i := 1; i < len(b.entries); i++ {
		if b.entries[i].seen < b.entries[lrs].seen {
			lrs = i
		}
	}
	return lrs
}

// findStale returns the index of the least-recently-seen entry with fails
// >= limit that has no ping outstanding, or -1.
func (b *bucket) findStale(limit int) int {
	found := -1
	for i := range b.entries {
		if e := &b.entries[i]; e.stale(limit) && !e.pingInFlight && (found < 0 || e.seen < b.entries[found].seen) {
			found = i
		}
	}
	return found
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
	// occupied has one bit per bucket, set once the bucket holds a live
	// contact (an entry leaves only for another, so a bucket never empties
	// again), so that AppendClosest steps over empty buckets a word at a
	// time. Bits are numbered from the top like id.XorWords: depth c is
	// bit 63-c%64 of word c/64.
	occupied [id.MaxBytes / 8]uint64
	// clock is the last recency stamp handed out (see entry.seen).
	clock uint64
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

// Observe records direct communication with a contact, per the protocol:
// "when a Kademlia node receives any message (request or reply) from
// another node, it updates the appropriate k-bucket for the sender's node
// ID". A known contact becomes the most recently seen and its failure
// count resets. An unknown contact fills a free slot, or directly replaces a
// stale (failure count >= s) entry of a full bucket; otherwise it joins
// the replacement cache and the least-recently-seen live entry is
// nominated for a liveness ping.
//
// With answered set the contact has just answered one of our requests: a
// known contact then also clears its ping flag, which a successful
// exchange initiated by us does. One call with one bucket search records
// both the sighting and the success; a contact this call admits has no
// ping flag to clear.
//
// Observe returns that nominee, or the zero Contact when there is none; the
// caller should ping it to test liveness. The entry is marked ping-in-flight
// until an answered Observe or RecordFailure of it.
func (rt *RoutingTable) Observe(c *Contact, answered bool) Contact {
	if c.ID.Equal(rt.self) || c.ID.IsZeroValue() {
		return Contact{}
	}
	depth := rt.cfg.Bits - 1 - rt.self.BucketIndex(c.ID)
	if depth >= len(rt.buckets) {
		// First contact this deep: it is inserted below, so the growth is
		// never wasted on a bucket that stays empty.
		rt.buckets = append(rt.buckets, make([]bucket, depth+1-len(rt.buckets))...)
	}
	b := &rt.buckets[depth]
	i, known := b.search(c.ID)
	if known {
		e := &b.entries[i]
		e.seen = rt.stamp()
		e.fails = 0
		e.contact = *c // refresh address
		if answered {
			e.pingInFlight = false
		}
		return Contact{}
	}
	if len(b.entries) < rt.cfg.K {
		if b.entries == nil {
			// Once a bucket has an entry it tends to fill: allocate its
			// arrays once, at capacity k, not by append doubling.
			b.entries = make([]entry, 0, rt.cfg.K)
			b.tops = make([]uint64, 0, rt.cfg.K)
		}
		b.insert(i, *c, rt.stamp())
		rt.size++
		rt.occupy(depth)
		return Contact{}
	}
	// Bucket full: a stale entry (>= s consecutive failures) is replaced
	// outright by the newcomer we just heard from.
	if i := b.findStale(rt.cfg.StalenessLimit); i >= 0 {
		b.replace(i, *c, rt.stamp())
		return Contact{}
	}
	// Otherwise stash in the replacement cache (dropping the oldest
	// beyond capacity) and nominate the least-recently-seen entry for a
	// liveness check. A success for a contact that is not in the table
	// changes nothing.
	b.removeReplacement(c.ID)
	b.pushReplacement(*c, rt.cfg.ReplacementCacheSize)
	lrs := &b.entries[b.oldest()]
	if lrs.pingInFlight {
		return Contact{}
	}
	lrs.pingInFlight = true
	return lrs.contact
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
	b.replace(i, promoted, rt.stamp())
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
// contacts in ascending distance bucket by bucket. Inside a bucket the
// sorted identifiers are walked as a trie (bucket.appendClosest), so
// nothing is sorted at all, and the walk stops as soon as count are found.
func (rt *RoutingTable) AppendClosest(dst []Contact, target id.ID, count int, exclude id.ID) []Contact {
	d := rt.self.XorWords(target)
	want := len(dst) + count
	// d, occupied and buckets all number from the top (see occupied):
	// ascending bit position is ascending depth, descending bucket index.
	for w := 0; w < len(d) && len(dst) < want; w++ {
		for m := rt.occupied[w] & d[w]; m != 0 && len(dst) < want; {
			lz := bits.LeadingZeros64(m)
			m &^= 1 << (63 - lz)
			dst = rt.buckets[64*w+lz].appendClosest(dst, &target, want, &exclude)
		}
	}
	for w := len(d) - 1; w >= 0 && len(dst) < want; w-- {
		for m := rt.occupied[w] &^ d[w]; m != 0 && len(dst) < want; {
			tz := bits.TrailingZeros64(m)
			m &= m - 1
			dst = rt.buckets[64*w+63-tz].appendClosest(dst, &target, want, &exclude)
		}
	}
	return dst
}

// appendClosest appends the bucket's contacts other than exclude to dst in ascending
// distance to target until dst holds want.
//
// It walks the bucket's sorted identifiers as the binary trie they are. A
// range of them agrees above the highest bit where its first and last top
// words differ and splits there into a 0-half followed by a 1-half; the
// half whose bit matches target's is entirely closer to target than the
// other, so visiting it first, depth first, meets the contacts in
// ascending distance with no sort and no scratch, and the walk stops as
// soon as dst is full. A range whose first and last top words are equal
// shares its top word throughout, and only such a range is ordered by
// full identifiers (appendTied).
func (b *bucket) appendClosest(dst []Contact, target *id.ID, want int, exclude *id.ID) []Contact {
	targetTop, excludeTop := topWord(*target), topWord(*exclude)
	tops := b.tops
	// Each split lowers the bit that decides, so at most 64 far halves
	// wait at once.
	var far [64]struct{ lo, hi int32 }
	waiting := 0
	lo, hi := 0, len(tops)
	for {
		if x := tops[lo] ^ tops[hi-1]; x != 0 {
			bit := uint64(1) << (63 - bits.LeadingZeros64(x))
			// The first index of the 1-half: tops[lo] has the bit clear
			// and tops[hi-1] has it set.
			m, last := lo+1, hi-1
			for m < last {
				mid := int(uint(m+last) >> 1)
				if tops[mid]&bit == 0 {
					m = mid + 1
				} else {
					last = mid
				}
			}
			if targetTop&bit == 0 {
				far[waiting].lo, far[waiting].hi = int32(m), int32(hi)
				hi = m
			} else {
				far[waiting].lo, far[waiting].hi = int32(lo), int32(m)
				lo = m
			}
			waiting++
			continue
		}
		if hi-lo > 1 {
			dst = appendTied(dst, b.entries[lo:hi], target, want, exclude)
		} else if e := &b.entries[lo]; tops[lo] != excludeTop || !e.contact.ID.Equal(*exclude) {
			dst = append(dst, e.contact)
		}
		if waiting == 0 || len(dst) >= want {
			return dst
		}
		waiting--
		lo, hi = int(far[waiting].lo), int(far[waiting].hi)
	}
}

// appendTied appends the contacts of entries, which all share their top
// word, other than exclude to dst in ascending distance to target until dst
// holds want. Such ties need crafted identifiers, so each step simply picks
// the closest contact farther than the one before.
func appendTied(dst []Contact, entries []entry, target *id.ID, want int, exclude *id.ID) []Contact {
	var prev *id.ID
	for len(dst) < want {
		next := -1
		for i := range entries {
			c := &entries[i].contact.ID
			if (prev == nil || prev.CloserTo(*target, *c)) && (next < 0 || c.CloserTo(*target, entries[next].contact.ID)) {
				next = i
			}
		}
		if next < 0 {
			return dst
		}
		prev = &entries[next].contact.ID
		if !prev.Equal(*exclude) {
			dst = append(dst, entries[next].contact)
		}
	}
	return dst
}

// Contacts returns every live contact, bucket by bucket, each bucket in
// identifier order.
func (rt *RoutingTable) Contacts() []Contact {
	return rt.AppendContacts(make([]Contact, 0, rt.size))
}

// AppendContacts appends every live contact to dst in Contacts' order and
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
// populated range plus one deeper bucket (README, "The simulated
// protocol", lists it as a substitution for the paper's protocol).
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

// stamp hands out the table's next recency stamp.
func (rt *RoutingTable) stamp() uint64 {
	rt.clock++
	return rt.clock
}

// occupy records that the bucket at depth c holds a live contact.
func (rt *RoutingTable) occupy(c int) { rt.occupied[c/64] |= 1 << (63 - c%64) }

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
