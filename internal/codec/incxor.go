package codec

import (
	"fmt"
	"math/bits"

	"busenc/internal/bus"
)

func init() {
	Register("incxor", func(width int, opts Options) (Codec, error) {
		return NewIncXor(width, opts.stride())
	})
}

// IncXor is the INC-XOR code (EXTENSION — Ramprasad, Shanbhag and Hajj's
// coding framework, a standard irredundant competitor to T0 in the
// post-DATE'98 literature): the word transmitted is
//
//	B(t) = b(t) XOR (b(t-1) + S)
//
// i.e. the new address XORed with the *predicted* address. A perfectly
// sequential stream transmits the constant zero word — zero transitions,
// like T0 but without the redundant INC line. Out-of-sequence references
// transmit the prediction error, whose Hamming weight reflects how far
// the jump went. The decoder reverses the XOR with its own prediction.
type IncXor struct {
	width  int
	mask   uint64
	stride uint64
}

// NewIncXor returns the INC-XOR code over width lines with stride S.
func NewIncXor(width int, stride uint64) (*IncXor, error) {
	if err := checkWidth("incxor", width, 0); err != nil {
		return nil, err
	}
	if stride == 0 || stride&(stride-1) != 0 {
		return nil, fmt.Errorf("codec incxor: stride must be a power of two, got %d", stride)
	}
	return &IncXor{width: width, mask: bus.Mask(width), stride: stride}, nil
}

// Name implements Codec.
func (x *IncXor) Name() string { return "incxor" }

// PayloadWidth implements Codec.
func (x *IncXor) PayloadWidth() int { return x.width }

// BusWidth implements Codec.
func (x *IncXor) BusWidth() int { return x.width }

// NewEncoder implements Codec.
func (x *IncXor) NewEncoder() Encoder { return &incXorEnd{x: x} }

// NewDecoder implements Codec.
func (x *IncXor) NewDecoder() Decoder { return &incXorEnd{x: x} }

// incXorEnd holds the previous address; encode and decode mirror each
// other around the shared prediction.
type incXorEnd struct {
	x     *IncXor
	prev  uint64
	valid bool
}

func (e *incXorEnd) predict() uint64 {
	if !e.valid {
		// Before any reference the prediction is zero, so the first word
		// is the address itself at both ends.
		return 0
	}
	return (e.prev + e.x.stride) & e.x.mask
}

func (e *incXorEnd) Encode(s Symbol) uint64 {
	addr := s.Addr & e.x.mask
	out := addr ^ e.predict()
	e.prev = addr
	e.valid = true
	return out
}

func (e *incXorEnd) Decode(word uint64, _ bool) uint64 {
	addr := (word ^ e.predict()) & e.x.mask
	e.prev = addr
	e.valid = true
	return addr
}

func (e *incXorEnd) Reset() { e.prev, e.valid = 0, false }

// EncodePlanes implements PlaneEncoder. Lane i transmits
// a_i ^ (a_{i-1} + S): build the lane-shifted predecessor planes (the
// pre-block address feeds lane 0) and add the power-of-two stride
// bit-sliced — planes below the stride's bit pass through, the stride's
// own plane flips and seeds the carry, planes above it ripple the
// carry. Each lane's carry chain is independent. When First, the
// prediction for lane 0 must be zero (a fresh encoder transmits the
// first address verbatim), so lane 0 of the summed prediction is
// cleared before the XOR.
func (x *IncXor) EncodePlanes(blk *PlaneBlock, scratch *[64]uint64) (*[64]uint64, uint64) {
	a := blk.A
	prev := blk.PrevRaw & x.mask // zero when blk.First
	shift := bits.TrailingZeros64(x.stride)
	keep := ^uint64(0)
	if blk.First {
		keep = ^uint64(1)
	}
	width := x.width
	if width > 64 {
		width = 64 // unreachable; aids bounds-check elimination
	}
	low := shift
	if low > width {
		low = width
	}
	b := 0
	for ; b < low; b++ {
		ab := a[b]
		sp := ab<<1 | (prev>>uint(b))&1
		scratch[b] = ab ^ sp&keep
	}
	var cy uint64
	if b == shift && b < width {
		ab := a[b]
		sp := ab<<1 | (prev>>uint(b))&1
		scratch[b] = ab ^ ^sp&keep
		cy = sp
		b++
	}
	for ; b < width; b++ {
		ab := a[b]
		sp := ab<<1 | (prev>>uint(b))&1
		scratch[b] = ab ^ (sp^cy)&keep
		cy &= sp
	}
	addr := blk.Last & x.mask
	pred := uint64(0)
	if !(blk.First && blk.N == 1) {
		pred = (blk.Prev2&x.mask + x.stride) & x.mask
	}
	return scratch, addr ^ pred
}

// deltaStride implements deltaCodec.
func (x *IncXor) deltaStride() uint64 { return x.stride }

// deltaSlot implements deltaCodec: each word is a ^ (prev + S).
func (x *IncXor) deltaSlot() int { return slotIncXor }

// incXorState is the Snapshot payload of the shared INC-XOR end.
type incXorState struct {
	prev  uint64
	valid bool
}

// Snapshot implements StateCodec.
func (e *incXorEnd) Snapshot() State { return incXorState{e.prev, e.valid} }

// Restore implements StateCodec.
func (e *incXorEnd) Restore(st State) {
	s := st.(incXorState)
	e.prev, e.valid = s.prev, s.valid
}

// SeedFrom implements Seeder: the prediction depends only on the
// previous masked address.
func (e *incXorEnd) SeedFrom(prev Symbol) { e.prev, e.valid = prev.Addr&e.x.mask, true }
