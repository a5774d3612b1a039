package kademlia

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"kadre/internal/id"
	"kadre/internal/simnet"
)

func testConfig() Config {
	return Config{Bits: 64, K: 4, Alpha: 2, StalenessLimit: 2}.WithDefaults()
}

func contact(v uint64) Contact {
	return Contact{ID: id.FromUint64(64, v), Addr: simnet.Addr(v)}
}

// sight observes c and returns the ping nominee.
func sight(rt *RoutingTable, c Contact) Contact { return rt.Observe(&c, false) }

func TestObserveInsertAndUpdate(t *testing.T) {
	rt := NewRoutingTable(id.FromUint64(64, 0), testConfig())
	c := contact(5)
	if ping := rt.Observe(&c, false); !ping.ID.IsZeroValue() {
		t.Fatalf("first observe nominated %v for a ping", ping)
	}
	if !rt.Contains(c.ID) || rt.Size() != 1 {
		t.Fatal("contact not inserted")
	}
	// Observing again must not duplicate.
	rt.Observe(&c, false)
	if rt.Size() != 1 {
		t.Fatal("duplicate insert")
	}
}

func TestObserveIgnoresSelfAndZero(t *testing.T) {
	self := id.FromUint64(64, 7)
	rt := NewRoutingTable(self, testConfig())
	if sight(rt, Contact{ID: self, Addr: 7}); rt.Contains(self) {
		t.Error("self must not be inserted")
	}
	if ping := sight(rt, Contact{}); !ping.ID.IsZeroValue() {
		t.Error("zero-value contact nominated a ping")
	}
	if rt.Size() != 0 {
		t.Fatal("table should be empty")
	}
}

func TestBucketPlacement(t *testing.T) {
	self := id.FromUint64(64, 0)
	rt := NewRoutingTable(self, testConfig())
	// Distance 1 -> bucket 0; distance 2,3 -> bucket 1; 4..7 -> bucket 2.
	sight(rt, contact(1))
	sight(rt, contact(2))
	sight(rt, contact(3))
	sight(rt, contact(5))
	if rt.BucketLen(0) != 1 || rt.BucketLen(1) != 2 || rt.BucketLen(2) != 1 {
		t.Fatalf("bucket lens = %d,%d,%d", rt.BucketLen(0), rt.BucketLen(1), rt.BucketLen(2))
	}
}

func TestFullBucketNominatesLRSPing(t *testing.T) {
	// k=4; bucket 63 covers the upper half of the id space.
	self := id.FromUint64(64, 0)
	rt := NewRoutingTable(self, testConfig())
	base := uint64(1) << 63
	for i := uint64(0); i < 4; i++ {
		sight(rt, contact(base+i))
	}
	if rt.Size() != 4 {
		t.Fatal("setup failed")
	}
	newcomer := contact(base + 100)
	ping := rt.Observe(&newcomer, false)
	if rt.Contains(newcomer.ID) {
		t.Fatal("full bucket must not insert directly")
	}
	if !ping.ID.Equal(id.FromUint64(64, base)) {
		t.Fatalf("ping nominee = %v, want least-recently-seen (first inserted)", ping)
	}
	// A second observation while the ping is in flight must not nominate
	// another ping.
	if ping2 := sight(rt, contact(base+101)); !ping2.ID.IsZeroValue() {
		t.Fatal("duplicate ping nomination while one is in flight")
	}
}

func TestStalenessEvictionPromotesReplacement(t *testing.T) {
	self := id.FromUint64(64, 0)
	cfg := testConfig() // s = 2
	rt := NewRoutingTable(self, cfg)
	base := uint64(1) << 63
	for i := uint64(0); i < 4; i++ {
		sight(rt, contact(base+i))
	}
	newcomer := contact(base + 100)
	rt.Observe(&newcomer, false) // lands in replacement cache
	victim := id.FromUint64(64, base)
	if rt.RecordFailure(victim) {
		t.Fatal("first failure should not evict with s=2")
	}
	if !rt.RecordFailure(victim) {
		t.Fatal("second failure should evict (replacement available)")
	}
	if rt.Contains(victim) {
		t.Fatal("victim still present")
	}
	if !rt.Contains(newcomer.ID) {
		t.Fatal("replacement not promoted")
	}
	if rt.Size() != 4 {
		t.Fatalf("size = %d, want 4", rt.Size())
	}
}

func TestStaleEntryRetainedWithoutReplacement(t *testing.T) {
	// The BEP 5 rule: no eviction into a hole. A stale contact in a
	// bucket with an empty replacement cache stays.
	self := id.FromUint64(64, 0)
	rt := NewRoutingTable(self, testConfig()) // s=2
	c := contact(5)
	rt.Observe(&c, false)
	if rt.RecordFailure(c.ID) || rt.RecordFailure(c.ID) || rt.RecordFailure(c.ID) {
		t.Fatal("evicted without replacement")
	}
	if !rt.Contains(c.ID) {
		t.Fatal("contact vanished")
	}
	if !rt.IsStale(c.ID) {
		t.Fatal("contact should be stale")
	}
}

// TestRecordSuccessResetsFailureCount: a success, the answered Observe a
// response records, resets a contact's failure count and rehabilitates a
// stale entry.
func TestRecordSuccessResetsFailureCount(t *testing.T) {
	rt := NewRoutingTable(id.FromUint64(64, 0), testConfig()) // s = 2
	c := contact(9)
	rt.Observe(&c, false)
	rt.RecordFailure(c.ID)
	rt.Observe(&c, true) // an answer resets the budget
	rt.RecordFailure(c.ID)
	if rt.IsStale(c.ID) {
		t.Fatal("stale after success+single failure with s=2")
	}
	rt.RecordFailure(c.ID)
	if !rt.IsStale(c.ID) {
		t.Fatal("two consecutive failures should mark stale")
	}
	// No replacement available: the stale entry is retained (BEP 5 rule).
	if !rt.Contains(c.ID) {
		t.Fatal("stale entry evicted into a hole")
	}
	// A new observation of a different contact in the same bucket slot
	// range would replace it only when the bucket is full; success
	// rehabilitates.
	rt.Observe(&c, true)
	if rt.IsStale(c.ID) {
		t.Fatal("success did not rehabilitate the stale entry")
	}
}

func TestStaleEntryReplacedByNewObservation(t *testing.T) {
	// Full bucket, one entry goes stale, then a newcomer is observed: the
	// stale entry is replaced outright.
	self := id.FromUint64(64, 0)
	rt := NewRoutingTable(self, testConfig()) // k=4, s=2
	base := uint64(1) << 63
	for i := uint64(0); i < 4; i++ {
		sight(rt, contact(base+i))
	}
	victim := id.FromUint64(64, base)
	rt.RecordFailure(victim)
	rt.RecordFailure(victim)
	if !rt.IsStale(victim) {
		t.Fatal("victim should be stale")
	}
	newcomer := contact(base + 50)
	if rt.Observe(&newcomer, false); !rt.Contains(newcomer.ID) {
		t.Fatal("newcomer should replace the stale entry")
	}
	if rt.Contains(victim) {
		t.Fatal("stale entry survived replacement")
	}
	if rt.Size() != 4 {
		t.Fatalf("size = %d, want 4", rt.Size())
	}
}

func TestStaleCount(t *testing.T) {
	rt := NewRoutingTable(id.FromUint64(64, 0), testConfig()) // s=2
	sight(rt, contact(3))
	sight(rt, contact(9))
	if rt.StaleCount() != 0 {
		t.Fatal("fresh table has stale entries")
	}
	rt.RecordFailure(id.FromUint64(64, 3))
	rt.RecordFailure(id.FromUint64(64, 3))
	if rt.StaleCount() != 1 {
		t.Fatalf("StaleCount = %d, want 1", rt.StaleCount())
	}
}

func TestRecordFailureUnknownContact(t *testing.T) {
	rt := NewRoutingTable(id.FromUint64(64, 0), testConfig())
	if rt.RecordFailure(id.FromUint64(64, 42)) {
		t.Fatal("unknown contact cannot be evicted")
	}
}

func TestObserveMovesToMostRecent(t *testing.T) {
	self := id.FromUint64(64, 0)
	rt := NewRoutingTable(self, testConfig())
	base := uint64(1) << 63
	for i := uint64(0); i < 4; i++ {
		sight(rt, contact(base+i))
	}
	// Refresh the would-be victim: now base+1 is least recently seen.
	sight(rt, contact(base))
	if ping := sight(rt, contact(base+100)); !ping.ID.Equal(id.FromUint64(64, base+1)) {
		t.Fatalf("ping nominee = %v, want base+1", ping)
	}
}

// TestReplacementCacheBounded: a full bucket keeps at most k replacement
// contacts, the freshest ones.
func TestReplacementCacheBounded(t *testing.T) {
	cfg := testConfig()
	self := id.FromUint64(64, 0)
	rt := NewRoutingTable(self, cfg)
	base := uint64(1) << 63
	for i := uint64(0); i < 10; i++ {
		sight(rt, contact(base+i))
	}
	b := rt.bucket(63)
	if len(b.replacements) != cfg.K {
		t.Fatalf("replacement cache size = %d, want k = %d", len(b.replacements), cfg.K)
	}
	// The freshest arrivals are retained, oldest first: the first k of the
	// ten filled the bucket, and the cache dropped the oldest newcomers.
	for j, r := range b.replacements {
		if want := id.FromUint64(64, base+uint64(10-cfg.K+j)); !r.ID.Equal(want) {
			t.Fatalf("replacement %d = %v, want %v", j, r, want)
		}
	}
}

func TestClosestOrdering(t *testing.T) {
	self := id.FromUint64(64, 0)
	rt := NewRoutingTable(self, testConfig())
	for _, v := range []uint64{100, 7, 1, 50, 31, 200} {
		sight(rt, contact(v))
	}
	target := id.FromUint64(64, 6)
	got := rt.Closest(target, 3)
	if len(got) != 3 {
		t.Fatalf("Closest returned %d contacts", len(got))
	}
	// dist(7,6)=1, dist(1,6)=7, dist(31,6)=25: those are the 3 closest.
	want := []uint64{7, 1, 31}
	for i, w := range want {
		if !got[i].ID.Equal(id.FromUint64(64, w)) {
			t.Fatalf("Closest[%d] = %v, want %d", i, got[i].ID, w)
		}
	}
}

func TestClosestFewerThanRequested(t *testing.T) {
	rt := NewRoutingTable(id.FromUint64(64, 0), testConfig())
	sight(rt, contact(1))
	if got := rt.Closest(id.FromUint64(64, 9), 10); len(got) != 1 {
		t.Fatalf("Closest = %d contacts, want 1", len(got))
	}
}

func TestRefreshTargets(t *testing.T) {
	rt := NewRoutingTable(id.FromUint64(64, 0), testConfig())
	if rt.RefreshTargets() != nil {
		t.Fatal("empty table has no refresh targets")
	}
	sight(rt, contact(1<<10)) // bucket 10
	targets := rt.RefreshTargets()
	if len(targets) == 0 || targets[0] != 9 {
		t.Fatalf("targets start at %v, want 9 (one below lowest non-empty)", targets)
	}
	if targets[len(targets)-1] != 63 {
		t.Fatalf("targets end at %v, want 63", targets[len(targets)-1])
	}
	// Lowest bucket occupied: no underflow.
	rt2 := NewRoutingTable(id.FromUint64(64, 0), testConfig())
	sight(rt2, contact(1)) // bucket 0
	if got := rt2.RefreshTargets(); got[0] != 0 {
		t.Fatalf("targets start at %v, want 0", got[0])
	}
}

func TestContactsMatchesSize(t *testing.T) {
	f := func(vals []uint64) bool {
		rt := NewRoutingTable(id.FromUint64(64, 0), testConfig())
		for _, v := range vals {
			if v != 0 {
				sight(rt, contact(v))
			}
		}
		return len(rt.Contacts()) == rt.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendContactsReusesBuffer: AppendContacts keeps what dst already
// holds, appends exactly Contacts() in its order, and allocates nothing
// once the buffer has grown to fit.
func TestAppendContactsReusesBuffer(t *testing.T) {
	rt := NewRoutingTable(id.FromUint64(64, 0), testConfig())
	for v := uint64(1); v < 200; v += 3 {
		sight(rt, contact(v))
	}
	want := rt.Contacts()
	prefix := contact(12345)
	got := rt.AppendContacts([]Contact{prefix})
	if got[0] != prefix {
		t.Fatalf("dst's own element overwritten: %v", got[0])
	}
	if err := sameContacts(got[1:], want); err != nil {
		t.Fatal(err)
	}
	buf := got
	if allocs := testing.AllocsPerRun(10, func() { buf = rt.AppendContacts(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendContacts into a fitting buffer allocates %.0f times", allocs)
	}
}

func TestBucketInvariantProperty(t *testing.T) {
	// Property: every live contact sits in the bucket matching its XOR
	// distance, and no bucket exceeds k entries.
	r := rand.New(rand.NewSource(6))
	self := id.Random(64, r)
	cfg := testConfig()
	rt := NewRoutingTable(self, cfg)
	for i := 0; i < 500; i++ {
		rt.Observe(&Contact{ID: id.Random(64, r), Addr: simnet.Addr(i)}, false)
	}
	total := 0
	for i := 0; i < rt.BucketCount(); i++ {
		n := rt.BucketLen(i)
		total += n
		if n > cfg.K {
			t.Fatalf("bucket %d overflows: %d > k=%d", i, n, cfg.K)
		}
		if n == 0 {
			continue
		}
		for _, e := range rt.bucket(i).entries {
			if got := self.BucketIndex(e.contact.ID); got != i {
				t.Fatalf("contact %v in bucket %d, belongs in %d", e.contact.ID, i, got)
			}
		}
	}
	if total != rt.Size() {
		t.Fatalf("size %d != bucket total %d", rt.Size(), total)
	}
}

// TestAppendClosestOrdersTiedTopWordsByFullDistance: contacts whose
// identifiers agree in their top 64 bits share a bucket and give the
// bucket's trie walk nothing to split on; they must still come out in
// ascending full distance, the excluded one left out, cut at count.
func TestAppendClosestOrdersTiedTopWordsByFullDistance(t *testing.T) {
	const bits = 160
	self := id.FromUint64(bits, 1) // top word 0
	tied := func(lo uint64) id.ID {
		image := make([]byte, bits/8)
		image[0] = 0x80 // one top word, bucket 159 of self
		image[10], image[len(image)-1] = byte(lo>>8), byte(lo)
		return id.MustNew(bits, image)
	}
	rt := NewRoutingTable(self, Config{Bits: bits, K: 8})
	var ids []id.ID
	for _, lo := range []uint64{0x0107, 0x0001, 0x00ff, 0x0100, 0x0030, 0x0203} {
		ids = append(ids, tied(lo))
		rt.Observe(&Contact{ID: ids[len(ids)-1], Addr: simnet.Addr(lo)}, false)
	}
	for _, target := range []id.ID{tied(0x0100), tied(0x0031), tied(0x02ff), self} {
		for _, exclude := range []id.ID{{}, ids[0], ids[3]} {
			for _, count := range []int{1, 3, len(ids)} {
				want := closestOracle(rt, target, count, exclude)
				got := rt.AppendClosest(nil, target, count, exclude)
				if err := sameContacts(got, want); err != nil {
					t.Fatalf("target %s exclude %s count %d: %v", target, exclude, count, err)
				}
			}
		}
	}
	// The oracle sorts by full distance; pin one order by hand as well:
	// from 0x0100 the low parts' distances are 0x0000, 0x0007, 0x0101,
	// 0x0130, 0x01ff, 0x0303.
	got := rt.Closest(tied(0x0100), len(ids))
	for i, lo := range []uint64{0x0100, 0x0107, 0x0001, 0x0030, 0x00ff, 0x0203} {
		if got[i].Addr != simnet.Addr(lo) {
			t.Fatalf("position %d holds %v, want the contact with low part %#x", i, got[i], lo)
		}
	}
}

// TestEntryFillsOneCacheLine: an entry, recency stamp included, is 64
// bytes, so a bucket of k entries spans k cache lines and a contact's
// emission or update touches one.
func TestEntryFillsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 64 {
		t.Fatalf("entry is %d bytes, want 64", size)
	}
}
