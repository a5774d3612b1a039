package id

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// These tests pin what an identifier looks like from outside — its bytes,
// its hex string, the identifiers Hash, Random and RandomInBucket produce
// and the random draws they consume — so that the storage behind it can
// change without a single simulation result moving. The golden values were
// recorded from the byte-array representation.

// countingSource counts the draws a generator makes from its source.
type countingSource struct {
	src   rand.Source64
	draws int
}

func (c *countingSource) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

type bucketGolden struct {
	bucket int
	id     string
	draws  int
}

// reprGoldens: per bit-length, Hash(b, "kadre"); Random from a source
// seeded 1; then, continuing on the same source, RandomInBucket of
// Hash(b, "self") for each listed bucket in order (buckets whose top bit
// sits at a byte edge, mid-byte, at a word edge and mid-word); and
// FromUint64(b, 0x0102030405060708).
var reprGoldens = []struct {
	bits        int
	hash        string
	random      string
	randomDraws int
	buckets     []bucketGolden
	fromUint64  string
}{
	{
		bits: 8,
		hash: "11", random: "21", randomDraws: 1,
		buckets: []bucketGolden{
			{0, "07", 0},
			{3, "09", 1},
			{7, "c1", 1},
		},
		fromUint64: "08",
	},
	{
		bits: 80,
		hash: "1106388a6e6e5aad16ab", random: "4d65822107fcfd520fc7", randomDraws: 3,
		buckets: []bucketGolden{
			{0, "06c604b332b386b6cce9", 0},
			{3, "06c604b332b386b6cce3", 1},
			{7, "06c604b332b386b6cc69", 1},
			{8, "06c604b332b386b6cd6e", 1},
			{13, "06c604b332b386b6f544", 2},
			{63, "06c6cc17f41c244794f2", 8},
			{64, "06c78f261751896ca47a", 8},
			{70, "06b92f9cca857183b433", 9},
		},
		fromUint64: "00000102030405060708",
	},
	{
		bits: 160,
		hash: "1106388a6e6e5aad16abf6c12ed0c18788e6a27d", random: "4d65822107fcfd5278629a0f5f3f164fc7bb8186", randomDraws: 6,
		buckets: []bucketGolden{
			{0, "06c604b332b386b6cce8355ccf27fffd3a98b7a6", 0},
			{3, "06c604b332b386b6cce8355ccf27fffd3a98b7ae", 1},
			{7, "06c604b332b386b6cce8355ccf27fffd3a98b70b", 1},
			{8, "06c604b332b386b6cce8355ccf27fffd3a98b6ef", 1},
			{13, "06c604b332b386b6cce8355ccf27fffd3a989361", 2},
			{63, "06c604b332b386b6cce8355c60850ea520132282", 8},
			{64, "06c604b332b386b6cce8355d2d282595a8e79c88", 8},
			{70, "06c604b332b386b6cce83524f9d0ca85e19712eb", 9},
			{100, "06c604b332b386af3b15a7d15dedbc0ca94653d8", 13},
			{127, "06c604b3eba6cf435b402494354054fe24252bcd", 16},
			{128, "06c604b2965a0429eea3ddb63940d9343de403b8", 16},
			{159, "ffc7993a195a15b57e566dde3c03f8a59915c9e6", 20},
		},
		fromUint64: "0000000000000000000000000102030405060708",
	},
	{
		bits: 256,
		hash: "1106388a6e6e5aad16abf6c12ed0c18788e6a27d8be99125bbf843089392c011", random: "4d65822107fcfd5278629a0f5f3f164fd5104dc76695721db80704bb7b4d7c03", randomDraws: 4,
		buckets: []bucketGolden{
			{0, "06c604b332b386b6cce8355ccf27fffd3a98b7a7a5b9b3a550c039c6ebae38e5", 0},
			{3, "06c604b332b386b6cce8355ccf27fffd3a98b7a7a5b9b3a550c039c6ebae38ed", 1},
			{7, "06c604b332b386b6cce8355ccf27fffd3a98b7a7a5b9b3a550c039c6ebae3862", 1},
			{8, "06c604b332b386b6cce8355ccf27fffd3a98b7a7a5b9b3a550c039c6ebae39dd", 1},
			{13, "06c604b332b386b6cce8355ccf27fffd3a98b7a7a5b9b3a550c039c6ebae14ac", 2},
			{63, "06c604b332b386b6cce8355ccf27fffd3a98b7a7a5b9b3a5f40696641af6226f", 8},
			{64, "06c604b332b386b6cce8355ccf27fffd3a98b7a7a5b9b3a4c5e5dbc931c6aa9b", 8},
			{70, "06c604b332b386b6cce8355ccf27fffd3a98b7a7a5b9b3ce7f380f31ded6e3eb", 9},
			{100, "06c604b332b386b6cce8355ccf27fffd3a98b7b2e9904458c24dab0ca85fab3a", 13},
			{127, "06c604b332b386b6cce8355ccf27fffddee7eeb2ec4c240d4108c3a140ad2659", 16},
			{128, "06c604b332b386b6cce8355ccf27fffca6f2134e272691eeb82acfa1cd673f98", 16},
			{159, "06c604b332b386b6cce8355c7b3886fca7119c4e36ba011b0842cae2ecf69b69", 20},
			{255, "f8872368cff4fc84391645d6e698f9d53b5b4ef0d38759a8ffa2ef9b25f59dc0", 32},
		},
		fromUint64: "0000000000000000000000000000000000000000000000000102030405060708",
	},
}

func TestRepresentationGoldens(t *testing.T) {
	for _, g := range reprGoldens {
		g := g
		t.Run(fmt.Sprintf("bits=%d", g.bits), func(t *testing.T) {
			if got := Hash(g.bits, []byte("kadre")).String(); got != g.hash {
				t.Errorf("Hash = %s, want %s", got, g.hash)
			}
			cs := &countingSource{src: rand.NewSource(1).(rand.Source64)}
			r := rand.New(cs)
			if got := Random(g.bits, r).String(); got != g.random || cs.draws != g.randomDraws {
				t.Errorf("Random = %s after %d draws, want %s after %d", got, cs.draws, g.random, g.randomDraws)
			}
			self := Hash(g.bits, []byte("self"))
			for _, bg := range g.buckets {
				cs.draws = 0
				got := RandomInBucket(self, bg.bucket, r)
				if got.String() != bg.id || cs.draws != bg.draws {
					t.Errorf("RandomInBucket(%d) = %s after %d draws, want %s after %d", bg.bucket, got, cs.draws, bg.id, bg.draws)
				}
				if self.BucketIndex(got) != bg.bucket {
					t.Errorf("RandomInBucket(%d) landed in bucket %d", bg.bucket, self.BucketIndex(got))
				}
			}
			if got := FromUint64(g.bits, 0x0102030405060708).String(); got != g.fromUint64 {
				t.Errorf("FromUint64 = %s, want %s", got, g.fromUint64)
			}
		})
	}
}

func TestBytesAndStringRoundTripEveryLength(t *testing.T) {
	r := rng(11)
	for _, b := range []int{8, 80, 160, 256} {
		for trial := 0; trial < 50; trial++ {
			x := make([]byte, b/8)
			r.Read(x)
			a, err := New(b, x)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), x) {
				t.Fatalf("bits=%d: New(%x).Bytes() = %x", b, x, a.Bytes())
			}
			if a.String() != hex.EncodeToString(x) {
				t.Fatalf("bits=%d: String() = %s, want %x", b, a, x)
			}
			back, err := Parse(b, a.String())
			if err != nil || !back.Equal(a) || back != a {
				t.Fatalf("bits=%d: Parse(String()) = %v, %v; want %v", b, back, err, a)
			}
			if a.Bits() != b {
				t.Fatalf("Bits() = %d, want %d", a.Bits(), b)
			}
		}
		// FromUint64 is the integer value, right-aligned, truncated to the
		// identifier's width.
		v := r.Uint64()
		want := new(big.Int).SetUint64(v)
		if b < 64 {
			want.And(want, new(big.Int).SetUint64(1<<uint(b)-1))
		}
		if got := new(big.Int).SetBytes(FromUint64(b, v).Bytes()); got.Cmp(want) != 0 {
			t.Fatalf("bits=%d: FromUint64(%#x) has value %s, want %s", b, v, got, want)
		}
	}
}

// TestOrderingAgainstBigIntOracle holds every comparison and distance
// function to integer arithmetic on the byte images.
func TestOrderingAgainstBigIntOracle(t *testing.T) {
	r := rng(12)
	value := func(a ID) *big.Int { return new(big.Int).SetBytes(a.Bytes()) }
	for _, b := range []int{8, 80, 160, 256} {
		for trial := 0; trial < 400; trial++ {
			x, y, target := Random(b, r), Random(b, r), Random(b, r)
			switch trial % 4 {
			case 1: // y agrees with x down to a random bit
				y = RandomInBucket(x, r.Intn(b), r)
			case 2: // equal identifiers
				y = x
			case 3: // x and y equidistant from target in their top bits
				y = RandomInBucket(x, r.Intn(b), r)
				target = RandomInBucket(x, r.Intn(b), r)
			}
			vx, vy, vt := value(x), value(y), value(target)
			if got, want := x.Cmp(y), vx.Cmp(vy); got != want {
				t.Fatalf("bits=%d: Cmp(%s, %s) = %d, want %d", b, x, y, got, want)
			}
			dist := new(big.Int).Xor(vx, vy)
			if got := value(x.Distance(y)); got.Cmp(dist) != 0 || x.Distance(y).Bits() != b {
				t.Fatalf("bits=%d: Distance(%s, %s) = %s, want %x", b, x, y, x.Distance(y), dist)
			}
			if got, want := x.BucketIndex(y), dist.BitLen()-1; got != want {
				t.Fatalf("bits=%d: BucketIndex(%s, %s) = %d, want %d", b, x, y, got, want)
			}
			if got, want := x.Distance(y).BitLen(), dist.BitLen(); got != want {
				t.Fatalf("bits=%d: BitLen = %d, want %d", b, got, want)
			}
			if got, want := x.Distance(y).IsZero(), dist.Sign() == 0; got != want {
				t.Fatalf("bits=%d: IsZero = %v, want %v", b, got, want)
			}
			dx, dy := new(big.Int).Xor(vx, vt), new(big.Int).Xor(vy, vt)
			if got, want := x.CloserTo(target, y), dx.Cmp(dy) < 0; got != want {
				t.Fatalf("bits=%d: %s.CloserTo(%s, %s) = %v, want %v", b, x, target, y, got, want)
			}
			// XorWords is the distance left-aligned in 256 bits; XorPrefix
			// is its top word.
			words := x.XorWords(y)
			left := new(big.Int).Lsh(dist, uint(MaxBits-b))
			var image [MaxBytes]byte
			left.FillBytes(image[:])
			for k, w := range words {
				if want := new(big.Int).SetBytes(image[8*k : 8*k+8]).Uint64(); w != want {
					t.Fatalf("bits=%d: XorWords(%s, %s)[%d] = %#x, want %#x", b, x, y, k, w, want)
				}
			}
			if x.XorPrefix(y) != words[0] {
				t.Fatalf("bits=%d: XorPrefix = %#x, want %#x", b, x.XorPrefix(y), words[0])
			}
		}
	}
}

func TestIdentifiersAreMapKeysAndBitLengthsDiffer(t *testing.T) {
	seen := map[ID]int{}
	for _, b := range []int{8, 80, 160, 256} {
		for v := uint64(0); v < 50; v++ {
			seen[FromUint64(b, v)]++
			seen[MustNew(b, FromUint64(b, v).Bytes())]++ // an equal value built another way
		}
	}
	if len(seen) != 4*50 {
		t.Fatalf("%d distinct keys, want %d", len(seen), 4*50)
	}
	for key, n := range seen {
		if n != 2 {
			t.Fatalf("key %s (%d bits) counted %d times, want 2", key, key.Bits(), n)
		}
	}
	// The same integer in two identifier spaces is two identifiers.
	a, b := FromUint64(80, 7), FromUint64(160, 7)
	if a.Equal(b) || a == b {
		t.Fatal("identifiers of different bit-lengths compare equal")
	}
	if zero := (ID{}); zero.Equal(FromUint64(8, 0)) || !zero.Equal(ID{}) {
		t.Fatal("the zero value must equal only itself")
	}
}
