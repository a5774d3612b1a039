package id

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestCheckBits(t *testing.T) {
	tests := []struct {
		name    string
		bits    int
		wantErr bool
	}{
		{"default 160", 160, false},
		{"paper alternative 80", 80, false},
		{"max 256", 256, false},
		{"min 8", 8, false},
		{"zero", 0, true},
		{"negative", -8, true},
		{"not multiple of 8", 33, true},
		{"too large", 264, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckBits(tt.bits)
			if (err != nil) != tt.wantErr {
				t.Fatalf("CheckBits(%d) error = %v, wantErr %v", tt.bits, err, tt.wantErr)
			}
		})
	}
}

func TestNewValidatesLength(t *testing.T) {
	if _, err := New(160, make([]byte, 20)); err != nil {
		t.Fatalf("New(160, 20 bytes) unexpected error: %v", err)
	}
	if _, err := New(160, make([]byte, 19)); err == nil {
		t.Fatal("New(160, 19 bytes) expected error")
	}
	if _, err := New(7, make([]byte, 1)); err == nil {
		t.Fatal("New(7, ...) expected error")
	}
}

func TestFromUint64RoundTrip(t *testing.T) {
	tests := []struct {
		v    uint64
		bits int
	}{
		{0, 64}, {1, 64}, {255, 64}, {256, 64}, {1 << 40, 64},
		{0, 160}, {42, 160}, {1<<64 - 1, 160}, {7, 8},
	}
	for _, tt := range tests {
		a := FromUint64(tt.bits, tt.v)
		b := FromUint64(tt.bits, tt.v)
		if !a.Equal(b) {
			t.Errorf("FromUint64(%d,%d) not deterministic", tt.bits, tt.v)
		}
		if a.Bits() != tt.bits {
			t.Errorf("Bits() = %d, want %d", a.Bits(), tt.bits)
		}
	}
	if FromUint64(64, 5).Cmp(FromUint64(64, 6)) != -1 {
		t.Error("5 should compare less than 6")
	}
	if FromUint64(64, 300).Cmp(FromUint64(64, 299)) != 1 {
		t.Error("300 should compare greater than 299")
	}
}

func TestDistanceXORProperties(t *testing.T) {
	r := rng(1)
	// Identity: dist(a, a) = 0.
	for i := 0; i < 50; i++ {
		a := Random(160, r)
		if !a.Distance(a).IsZero() {
			t.Fatalf("dist(a,a) != 0 for %v", a)
		}
	}
	// Symmetry: dist(a, b) = dist(b, a).
	symm := func(av, bv uint64) bool {
		a, b := FromUint64(160, av), FromUint64(160, bv)
		return a.Distance(b).Equal(b.Distance(a))
	}
	if err := quick.Check(symm, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	// XOR triangle equality: dist(a,c) = dist(a,b) XOR dist(b,c), which
	// implies the triangle inequality for the XOR metric.
	tri := func(av, bv, cv uint64) bool {
		a, b, c := FromUint64(160, av), FromUint64(160, bv), FromUint64(160, cv)
		return a.Distance(c).Equal(a.Distance(b).Distance(b.Distance(c)))
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Errorf("triangle equality: %v", err)
	}
	// Unidirectionality helper: for any a != b, exactly one is closer to any
	// target unless equidistant is impossible under XOR (it is: distances
	// are distinct for distinct points).
	uni := func(av, bv, tv uint64) bool {
		a, b, target := FromUint64(160, av), FromUint64(160, bv), FromUint64(160, tv)
		if a.Equal(b) {
			return !a.CloserTo(target, b) && !b.CloserTo(target, a)
		}
		return a.CloserTo(target, b) != b.CloserTo(target, a)
	}
	if err := quick.Check(uni, nil); err != nil {
		t.Errorf("unique ordering: %v", err)
	}
}

func TestBitLen(t *testing.T) {
	tests := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1 << 63, 64},
	}
	for _, tt := range tests {
		if got := FromUint64(160, tt.v).BitLen(); got != tt.want {
			t.Errorf("BitLen(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestBucketIndex(t *testing.T) {
	self := FromUint64(64, 0)
	tests := []struct {
		other uint64
		want  int
	}{
		{0, -1}, // same id: no bucket
		{1, 0},  // dist 1 -> bucket 0
		{2, 1},  // dist 2 -> bucket 1
		{3, 1},  // dist 3 -> bucket 1
		{4, 2},  // dist in [4,8) -> bucket 2
		{7, 2},
		{8, 3},
		{1 << 20, 20},
		{1<<21 - 1, 20},
	}
	for _, tt := range tests {
		if got := self.BucketIndex(FromUint64(64, tt.other)); got != tt.want {
			t.Errorf("BucketIndex(dist=%d) = %d, want %d", tt.other, got, tt.want)
		}
	}
}

func TestBucketIndexRangeInvariant(t *testing.T) {
	// Property: for any distinct a, b the bucket index i satisfies
	// 2^i <= dist(a,b) < 2^(i+1), expressed via BitLen.
	f := func(av, bv uint64) bool {
		a, b := FromUint64(128, av), FromUint64(128, bv)
		if a.Equal(b) {
			return a.BucketIndex(b) == -1
		}
		i := a.BucketIndex(b)
		return i >= 0 && a.Distance(b).BitLen() == i+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInBucket(t *testing.T) {
	r := rng(7)
	for _, bits := range []int{8, 80, 160, 256} {
		self := Random(bits, r)
		for i := 0; i < bits; i++ {
			got := RandomInBucket(self, i, r)
			if idx := self.BucketIndex(got); idx != i {
				t.Fatalf("bits=%d: RandomInBucket(%d) landed in bucket %d", bits, i, idx)
			}
		}
	}
}

func TestRandomInBucketCoversRange(t *testing.T) {
	// In bucket 7 of an 8-bit space (distances 128..255) we should see many
	// distinct values, not just the lower bound.
	r := rng(3)
	self := FromUint64(8, 0)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		seen[RandomInBucket(self, 7, r).String()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("expected wide coverage of bucket range, got %d distinct values", len(seen))
	}
}

func TestRandomInBucketPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range bucket index")
		}
	}()
	RandomInBucket(FromUint64(64, 0), 64, rng(1))
}

func TestHashDeterministicAndSpread(t *testing.T) {
	a := Hash(160, []byte("node-1"))
	b := Hash(160, []byte("node-1"))
	c := Hash(160, []byte("node-2"))
	if !a.Equal(b) {
		t.Error("Hash not deterministic")
	}
	if a.Equal(c) {
		t.Error("distinct payloads hashed to same id")
	}
	if a.Bits() != 160 {
		t.Errorf("Bits() = %d, want 160", a.Bits())
	}
	// Truncation consistency: the 80-bit hash is a prefix of the 160-bit hash.
	short := Hash(80, []byte("node-1"))
	long := Hash(160, []byte("node-1"))
	for i, bb := range short.Bytes() {
		if long.Bytes()[i] != bb {
			t.Fatal("shorter hash is not a prefix of longer hash")
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	r := rng(11)
	for i := 0; i < 20; i++ {
		a := Random(160, r)
		back, err := Parse(160, a.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", a.String(), err)
		}
		if !back.Equal(a) {
			t.Fatalf("round trip mismatch: %v vs %v", back, a)
		}
	}
	if _, err := Parse(160, "zz"); err == nil {
		t.Error("expected error for invalid hex")
	}
	if _, err := Parse(160, "abcd"); err == nil {
		t.Error("expected error for wrong length")
	}
}

// TestTextRoundTrip pins the encoding checkpoints rest on: the hex text
// alone restores the identifier, bit-length included, and the zero value
// is the empty text.
func TestTextRoundTrip(t *testing.T) {
	r := rng(12)
	for _, a := range []ID{{}, Random(80, r), Random(160, r)} {
		text, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		back := Random(160, r) // overwritten, not merged into
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != a || back.Bits() != a.Bits() {
			t.Fatalf("round trip of %d-bit %q gave %d-bit %v", a.Bits(), text, back.Bits(), back)
		}
	}
	// The encoding is what encoding/json picks up for a field of type ID.
	data, err := json.Marshal(struct{ ID ID }{FromUint64(80, 0xabc)})
	if err != nil || string(data) != `{"ID":"00000000000000000abc"}` {
		t.Fatalf("json.Marshal = %s, %v", data, err)
	}
	for _, bad := range []string{"abc", "zz", "0g", strings.Repeat("ab", MaxBytes+1)} {
		var a ID
		if err := a.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted as %d-bit %v", bad, a.Bits(), a)
		}
	}
}

func TestRandomUniformBits(t *testing.T) {
	// Sanity check on uniformity: with 2000 draws of 160-bit ids, each of
	// the first 8 bits should be set roughly half of the time.
	r := rng(42)
	const draws = 2000
	counts := make([]int, 8)
	for i := 0; i < draws; i++ {
		b := Random(160, r).Bytes()[0]
		for j := 0; j < 8; j++ {
			if b&(1<<uint(7-j)) != 0 {
				counts[j]++
			}
		}
	}
	for j, c := range counts {
		if c < draws/3 || c > draws*2/3 {
			t.Errorf("bit %d set %d/%d times; want near %d", j, c, draws, draws/2)
		}
	}
}

func TestBytesIsACopy(t *testing.T) {
	a := FromUint64(64, 42)
	b := a.Bytes()
	b[0] = 0xFF
	if a.Bytes()[0] == 0xFF {
		t.Fatal("Bytes() leaked internal storage")
	}
}

func TestCloserTo(t *testing.T) {
	target := FromUint64(64, 100)
	near := FromUint64(64, 101) // dist 1
	far := FromUint64(64, 200)  // dist 172
	if !near.CloserTo(target, far) {
		t.Error("near should be closer to target than far")
	}
	if far.CloserTo(target, near) {
		t.Error("far should not be closer to target than near")
	}
	if near.CloserTo(target, near) {
		t.Error("an id is not strictly closer than itself")
	}
}

func TestMixedBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mixed bit-lengths")
		}
	}()
	FromUint64(64, 1).Distance(FromUint64(128, 1))
}

func TestIsZeroValue(t *testing.T) {
	var zero ID
	if !zero.IsZeroValue() {
		t.Error("zero value should report IsZeroValue")
	}
	if FromUint64(64, 0).IsZeroValue() {
		t.Error("a constructed id is not the zero value")
	}
}
