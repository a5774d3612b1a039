// Package id implements b-bit Kademlia identifiers and the XOR distance
// metric from Maymounkov and Mazieres. Identifiers name both nodes and data
// objects. The bit-length b is a protocol parameter (the paper evaluates
// b = 160 and b = 80); all identifiers participating in one network must
// share the same bit-length.
package id

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// MaxBits is the largest supported identifier bit-length.
const MaxBits = 256

// MaxBytes is the largest supported identifier byte-length.
const MaxBytes = MaxBits / 8

// DefaultBits is the bit-length used by the original Kademlia paper.
const DefaultBits = 160

var (
	// ErrBitLength reports an unsupported identifier bit-length.
	ErrBitLength = errors.New("id: bit-length must be a positive multiple of 8 and at most 256")
	// ErrDataLength reports a data buffer whose size does not match the bit-length.
	ErrDataLength = errors.New("id: data length does not match bit-length")
	// ErrMixedBits reports an operation on identifiers of different bit-lengths.
	ErrMixedBits = errors.New("id: mixed identifier bit-lengths")
)

// ID is an immutable b-bit identifier. The zero value is invalid; construct
// identifiers with New, Random, FromUint64, Hash, or Parse. Identifiers are
// value types: Equal and == agree (both compare the bit-length too), and an
// ID is a valid map key.
//
// The value is stored as four native 64-bit words, word 0 holding the most
// significant bits, left-aligned like the big-endian byte image it stands
// for: byte j of the image is bits 63-8(j%8) … 56-8(j%8) of word j/8, and
// everything past the first bits/8 bytes is zero. Every comparison and
// distance function on the simulator's hot path (Equal, XorPrefix, CloserTo,
// BucketIndex, XorWords) is therefore plain word arithmetic; the byte image
// exists only at the edges — New, Hash, Random, FromUint64, RandomInBucket
// build one and load it, Bytes, String and the text codec store one — and
// is byte for byte, and random draw for random draw, what it was when the
// bytes were the storage.
type ID struct {
	bits int
	w    [words]uint64
}

// words is the number of 64-bit words in an identifier's storage. Words
// past the identifier's own are zero, so word-wise comparisons may run over
// all of them whatever the bit-length.
const words = MaxBytes / 8

// load builds an identifier from its byte image; image[bitLen/8:] must be
// zero.
func load(bitLen int, image *[MaxBytes]byte) ID {
	out := ID{bits: bitLen}
	for k := range out.w {
		out.w[k] = binary.BigEndian.Uint64(image[8*k:])
	}
	return out
}

// image returns the identifier's byte image.
func (a *ID) image() (image [MaxBytes]byte) {
	for k, w := range a.w {
		binary.BigEndian.PutUint64(image[8*k:], w)
	}
	return image
}

// CheckBits validates an identifier bit-length.
func CheckBits(b int) error {
	if b <= 0 || b > MaxBits || b%8 != 0 {
		return fmt.Errorf("%w: %d", ErrBitLength, b)
	}
	return nil
}

// New builds an identifier of the given bit-length from big-endian bytes.
// len(data) must equal bits/8.
func New(bitLen int, data []byte) (ID, error) {
	if err := CheckBits(bitLen); err != nil {
		return ID{}, err
	}
	if len(data) != bitLen/8 {
		return ID{}, fmt.Errorf("%w: got %d bytes, want %d", ErrDataLength, len(data), bitLen/8)
	}
	var image [MaxBytes]byte
	copy(image[:], data)
	return load(bitLen, &image), nil
}

// MustNew is New but panics on error. It is intended for tests and for
// call sites that construct identifiers from compile-time constants.
func MustNew(bitLen int, data []byte) ID {
	out, err := New(bitLen, data)
	if err != nil {
		panic(err)
	}
	return out
}

// Random returns a uniformly random identifier of the given bit-length drawn
// from r. It panics if the bit-length is invalid, since the caller always
// controls it.
func Random(bitLen int, r *rand.Rand) ID {
	if err := CheckBits(bitLen); err != nil {
		panic(err)
	}
	out := ID{bits: bitLen}
	n := bitLen / 8
	full := n / 8 // whole words that fit inside the id: one draw each
	for k := 0; k < full; k++ {
		out.w[k] = r.Uint64()
	}
	for i := 8 * full; i < n; i++ { // the remaining bytes: one draw each
		out.w[full] |= uint64(r.Intn(256)) << (56 - 8*(i%8))
	}
	return out
}

// FromUint64 returns the identifier whose integer value is v, in a space of
// the given bit-length. It is mainly useful in tests, where small readable
// identifier values make distances obvious.
func FromUint64(bitLen int, v uint64) ID {
	if err := CheckBits(bitLen); err != nil {
		panic(err)
	}
	var image [MaxBytes]byte
	n := bitLen / 8
	for i := 0; i < 8 && i < n; i++ {
		image[n-1-i] = byte(v >> (8 * i))
	}
	return load(bitLen, &image)
}

// Hash derives an identifier from an arbitrary payload using SHA-256,
// truncated to the requested bit-length. The paper derives node identifiers
// from network addresses this way ("using a cryptographically secure hash
// function with the goal of equal distribution").
func Hash(bitLen int, payload []byte) ID {
	if err := CheckBits(bitLen); err != nil {
		panic(err)
	}
	sum := sha256.Sum256(payload)
	var image [MaxBytes]byte
	copy(image[:bitLen/8], sum[:])
	return load(bitLen, &image)
}

// Parse decodes a hex string produced by String into an identifier of the
// given bit-length.
func Parse(bitLen int, s string) (ID, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return ID{}, fmt.Errorf("id: parse %q: %w", s, err)
	}
	return New(bitLen, raw)
}

// Bits reports the identifier's bit-length, or 0 for the zero value.
func (a ID) Bits() int { return a.bits }

// IsZeroValue reports whether a is the invalid zero value (no bit-length).
func (a ID) IsZeroValue() bool { return a.bits == 0 }

// Bytes returns a copy of the identifier's big-endian byte representation.
func (a ID) Bytes() []byte {
	image := a.image()
	return append([]byte(nil), image[:a.bits/8]...)
}

// String renders the identifier as lowercase hex.
func (a ID) String() string {
	image := a.image()
	return hex.EncodeToString(image[:a.bits/8])
}

// MarshalText renders the identifier as String does, so an ID inside a
// JSON document is its hex string.
func (a ID) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText is the inverse of MarshalText. Identifiers are whole
// bytes, so the text's length is the bit-length; empty text is the zero
// value.
func (a *ID) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*a = ID{}
		return nil
	}
	var err error
	*a, err = Parse(len(text)*4, string(text))
	return err
}

// Equal reports whether two identifiers have the same bit-length and value.
func (a ID) Equal(b ID) bool {
	// Spelled out word by word: the compiler turns == on a 40-byte struct
	// into a call, and this is the simulator's most frequent comparison.
	return a.bits == b.bits && a.w[0] == b.w[0] && a.w[1] == b.w[1] && a.w[2] == b.w[2] && a.w[3] == b.w[3]
}

// Cmp compares the integer values of two identifiers of equal bit-length:
// -1 if a < b, 0 if equal, +1 if a > b. It panics on mixed bit-lengths,
// which is always a programming error.
func (a ID) Cmp(b ID) int {
	mustSameBits(a.bits, b.bits)
	for k := 0; k < words; k++ {
		wa, wb := a.w[k], b.w[k]
		switch {
		case wa < wb:
			return -1
		case wa > wb:
			return 1
		}
	}
	return 0
}

// Distance returns the XOR distance between two identifiers, itself an
// identifier-sized value: dist(a, b) = a XOR b interpreted as an integer.
func (a ID) Distance(b ID) ID {
	mustSameBits(a.bits, b.bits)
	return ID{bits: a.bits, w: a.XorWords(b)}
}

// XorWords returns the XOR distance between two identifiers as big-endian
// 64-bit words, word 0 holding the most significant bits. Like the
// identifier's bytes the distance is left-aligned: bit i of the distance
// (counting from the least significant) is bit 63-c%64 of word c/64, where
// c = a.Bits()-1-i counts from the top.
func (a ID) XorWords(b ID) [MaxBytes / 8]uint64 {
	mustSameBits(a.bits, b.bits)
	var out [words]uint64
	for k := range out {
		out[k] = a.w[k] ^ b.w[k]
	}
	return out
}

// XorPrefix returns the 64 most significant bits of the XOR distance
// between two identifiers. Ordering by it agrees with ordering by the full
// distance wherever the prefixes differ. It is the one distance function
// that does not check bit-lengths — a sort key computed per contact has to
// inline — so it is only meaningful between identifiers of one network,
// which every checked function on the same path (XorWords, CloserTo,
// BucketIndex) enforces.
func (a ID) XorPrefix(b ID) uint64 {
	return a.w[0] ^ b.w[0]
}

// IsZero reports whether the identifier's integer value is zero. The XOR
// distance between two identifiers is zero exactly when they are equal.
func (a ID) IsZero() bool {
	return a.w == [words]uint64{}
}

// BitLen returns the position of the highest set bit plus one (the minimal
// number of bits needed to represent the value), or 0 for a zero value.
func (a ID) BitLen() int {
	for k := 0; k < words; k++ {
		if w := a.w[k]; w != 0 {
			return a.bits - 64*k - bits.LeadingZeros64(w)
		}
	}
	return 0
}

// BucketIndex returns the index of the k-bucket in a's routing table that
// holds identifier b: the i satisfying 2^i <= dist(a, b) < 2^(i+1). It
// returns -1 when a == b, which belongs to no bucket. The highest bucket
// index is a.Bits()-1 and covers half of the identifier space.
func (a ID) BucketIndex(b ID) int {
	mustSameBits(a.bits, b.bits)
	for k := 0; k < words; k++ {
		if w := a.w[k] ^ b.w[k]; w != 0 {
			return a.bits - 1 - 64*k - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// CloserTo reports whether a is strictly closer to target than b is, under
// the XOR metric.
func (a ID) CloserTo(target, b ID) bool {
	mustSameBits(a.bits, b.bits)
	mustSameBits(a.bits, target.bits)
	// Compare a^target with b^target word by word without allocating.
	for k := 0; k < words; k++ {
		t := target.w[k]
		da, db := a.w[k]^t, b.w[k]^t
		if da != db {
			return da < db
		}
	}
	return false
}

// RandomInBucket returns a uniformly random identifier that would land in
// bucket index i of self's routing table, i.e. with 2^i <= dist(self, id)
// < 2^(i+1). Kademlia's bucket-refresh procedure looks up such identifiers
// to repopulate each bucket. It panics if i is outside [0, self.Bits()).
func RandomInBucket(self ID, i int, r *rand.Rand) ID {
	if i < 0 || i >= self.bits {
		panic(fmt.Sprintf("id: bucket index %d out of range [0,%d)", i, self.bits))
	}
	// Build a random distance with highest set bit exactly i, then XOR it
	// onto self.
	var dist [MaxBytes]byte
	byteIdx := self.bits/8 - 1 - i/8
	bitInByte := uint(i % 8)
	dist[byteIdx] = 1 << bitInByte
	// Randomize all lower-order bits.
	if bitInByte > 0 {
		dist[byteIdx] |= byte(r.Intn(1 << bitInByte))
	}
	for j := byteIdx + 1; j < self.bits/8; j++ {
		dist[j] = byte(r.Intn(256))
	}
	return self.Distance(load(self.bits, &dist))
}

// mustSameBits takes the two bit-lengths, not the identifiers, and keeps
// the panic out of line, so that it costs its callers' inlining budget
// next to nothing.
func mustSameBits(a, b int) {
	if a != b {
		panicMixedBits(a, b)
	}
}

//go:noinline
func panicMixedBits(a, b int) {
	panic(fmt.Sprintf("%v: %d vs %d", ErrMixedBits, a, b))
}
