package kademlia

import (
	"fmt"
	"testing"

	"kadre/internal/id"
)

// referenceLookup is the candidate list as it was kept before the merge:
// one contact at a time, each placed by a binary search over the whole
// list that recomputes every distance it compares. It is kept only as the
// oracle lookup.merge is fuzzed against.
type referenceLookup struct {
	self, target id.ID
	candidates   []candidate
}

func (l *referenceLookup) position(nodeID id.ID) int {
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

func (l *referenceLookup) addCandidate(c Contact) {
	if c.ID.Equal(l.self) {
		return
	}
	idx := l.position(c.ID)
	if idx < len(l.candidates) && l.candidates[idx].contact.ID.Equal(c.ID) {
		return
	}
	l.candidates = append(l.candidates, candidate{})
	copy(l.candidates[idx+1:], l.candidates[idx:])
	l.candidates[idx] = candidate{contact: c, prefix: c.ID.XorPrefix(l.target), state: stateUnqueried}
}

// mergeCase is what FuzzLookupMerge decodes its bytes into.
type mergeCase struct {
	self, target id.ID
	existing     []candidate // sorted by distance to target, with states
	lists        [][]Contact // successive responses, contacts in any order
}

// fuzzID maps one byte to an identifier: the high nibble chooses the most
// significant byte, the low nibble the least significant one. Sixteen
// identifiers therefore share each 64-bit distance prefix (at more than 64
// bits), and duplicates are frequent. An 8-bit identifier is the byte.
func fuzzID(bits int, x byte) id.ID {
	image := make([]byte, bits/8)
	if bits == 8 {
		image[0] = x
	} else {
		image[0], image[len(image)-1] = x&0xf0, x&15
	}
	return id.MustNew(bits, image)
}

func decodeMergeCase(data []byte) mergeCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		x := data[0]
		data = data[1:]
		return x
	}
	bits := []int{8, 80, 160, 256}[next()%4]
	mc := mergeCase{self: fuzzID(bits, next()), target: fuzzID(bits, next())}
	ref := referenceLookup{self: mc.self, target: mc.target}
	for n := int(next() % 24); n > 0; n-- {
		ref.addCandidate(Contact{ID: fuzzID(bits, next())})
	}
	for i := range ref.candidates {
		ref.candidates[i].state = stateUnqueried + candidateState(next()%4)
	}
	mc.existing = ref.candidates
	// The rest is contact lists: a byte with its top bits set ends one
	// response and begins the next.
	var list []Contact
	for len(data) > 0 {
		x := next()
		list = append(list, Contact{ID: fuzzID(bits, x), Addr: 7})
		if x >= 0xf0 {
			mc.lists = append(mc.lists, list)
			list = nil
		}
	}
	mc.lists = append(mc.lists, list)
	return mc
}

func checkMergeCase(mc mergeCase) error {
	got := &lookup{
		node:       &Node{self: Contact{ID: mc.self}},
		target:     mc.target,
		candidates: append([]candidate(nil), mc.existing...),
	}
	want := &referenceLookup{
		self:       mc.self,
		target:     mc.target,
		candidates: append([]candidate(nil), mc.existing...),
	}
	for r, list := range mc.lists {
		got.merge(list)
		for _, c := range list {
			want.addCandidate(c)
		}
		if len(got.candidates) != len(want.candidates) {
			return fmt.Errorf("after list %d: %d candidates, want %d", r, len(got.candidates), len(want.candidates))
		}
		for i := range want.candidates {
			if got.candidates[i] != want.candidates[i] {
				return fmt.Errorf("after list %d: candidate %d = %+v, want %+v", r, i, got.candidates[i], want.candidates[i])
			}
		}
	}
	return nil
}

// mergeSeeds are the shapes the merge has to get right: header bytes are
// bit-length selector, self, target, existing count, the existing
// identifiers, their states, then the lists.
var mergeSeeds = [][]byte{
	{},
	// 160 bits, sorted list into an empty lookup.
	{2, 0x00, 0x10, 0, 0x11, 0x12, 0x13, 0x21, 0x35, 0x80},
	// The same reversed, then repeated.
	{2, 0x00, 0x10, 0, 0x80, 0x35, 0x21, 0x13, 0x12, 0x11, 0xf0, 0x11, 0x12, 0x13},
	// Duplicates inside one list and the node's own identifier.
	{2, 0x42, 0x10, 0, 0x11, 0x11, 0x42, 0x12, 0x42, 0x11},
	// Sixteen identifiers with one distance prefix, into existing ones
	// of the same prefix with every state.
	{2, 0x00, 0x33, 4, 0x31, 0x35, 0x39, 0x3d, 0, 1, 2, 3, 0x3f, 0x30, 0x38, 0x34, 0x3c, 0x32, 0x3a},
	// An unsorted list, two responses.
	{2, 0x00, 0x10, 3, 0x14, 0x25, 0x36, 1, 1, 2, 0x15, 0x16, 0x14, 0x27, 0xf1, 0x15, 0x28, 0x10},
	// 8-bit identifiers: prefix and identifier coincide.
	{0, 0x01, 0x80, 2, 0x81, 0x7f, 0, 3, 0x80, 0x82, 0x01, 0x7f, 0x83, 0x82},
	// 80 and 256 bits.
	{1, 0x09, 0x90, 1, 0x91, 2, 0x9f, 0x90, 0x91, 0xa0},
	{3, 0x09, 0x90, 1, 0x91, 2, 0x9f, 0x98, 0x91, 0xa8, 0xf8, 0x99},
}

// FuzzLookupMerge: whatever the order of a response's contact list —
// sorted as a responder sends it, reversed, repeating, naming the lookup's
// own node, full of identifiers that tie on their 64-bit prefix — merging
// it must leave the candidates exactly as inserting its contacts one at a
// time did: same contacts, same order, same states.
func FuzzLookupMerge(f *testing.F) {
	for _, seed := range mergeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		if err := checkMergeCase(decodeMergeCase(data)); err != nil {
			t.Fatal(err)
		}
	})
}
