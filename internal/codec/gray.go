package codec

import (
	"fmt"
	"math/bits"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("gray", func(width int, opts Options) (Codec, error) {
		return NewGray(width, opts.stride())
	})
}

// Gray is the Gray code of Su, Tsui and Despain: consecutive addresses
// differ in exactly one bit, so an unlimited in-sequence stream costs one
// transition per emitted address — the optimum among irredundant codes.
//
// For byte-addressable machines whose in-sequence increment is a power of
// two S > 1 (the situation of Mehta, Owens and Irwin [5]), the code is
// applied to the address divided by S while the low log2(S) bits pass
// through unchanged; in-sequence references then still cost a single
// transition.
type Gray struct {
	width     int
	mask      uint64
	shift     uint // log2(stride)
	lowMask   uint64
	stride    uint64
	graySpace int // width - shift
}

// NewGray returns the Gray code over width lines with the given
// in-sequence stride (a power of two).
func NewGray(width int, stride uint64) (*Gray, error) {
	if err := checkWidth("gray", width, 0); err != nil {
		return nil, err
	}
	if stride == 0 || stride&(stride-1) != 0 {
		return nil, fmt.Errorf("codec gray: stride must be a power of two, got %d", stride)
	}
	shift := uint(bits.TrailingZeros64(stride))
	if int(shift) >= width {
		return nil, fmt.Errorf("codec gray: stride %d consumes the whole %d-bit bus", stride, width)
	}
	return &Gray{
		width:     width,
		mask:      bus.Mask(width),
		shift:     shift,
		lowMask:   bus.Mask(int(shift)),
		stride:    stride,
		graySpace: width - int(shift),
	}, nil
}

// Name implements Codec.
func (g *Gray) Name() string { return "gray" }

// PayloadWidth implements Codec.
func (g *Gray) PayloadWidth() int { return g.width }

// BusWidth implements Codec.
func (g *Gray) BusWidth() int { return g.width }

// NewEncoder implements Codec.
func (g *Gray) NewEncoder() Encoder { return grayEnd{g} }

// NewDecoder implements Codec.
func (g *Gray) NewDecoder() Decoder { return grayEnd{g} }

type grayEnd struct{ g *Gray }

func (e grayEnd) Encode(s Symbol) uint64 {
	a := s.Addr & e.g.mask
	hi := a >> e.g.shift
	return (ToGray(hi) << e.g.shift) | (a & e.g.lowMask)
}

func (e grayEnd) Decode(word uint64, _ bool) uint64 {
	word &= e.g.mask
	hi := word >> e.g.shift
	return (FromGray(hi) << e.g.shift) | (word & e.g.lowMask)
}

func (e grayEnd) Reset() {}

// Snapshot implements StateCodec; the Gray code is stateless.
func (e grayEnd) Snapshot() State { return nil }

// Restore implements StateCodec.
func (e grayEnd) Restore(State) {}

// SeedFrom implements Seeder: nothing to seed.
func (e grayEnd) SeedFrom(Symbol) {}

// EncodeBatch implements BatchEncoder.
func (e grayEnd) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	mask, shift, lowMask := e.g.mask, e.g.shift, e.g.lowMask
	out = out[:len(addrs)]
	for i, a := range addrs {
		a &= mask
		hi := a >> shift
		out[i] = (ToGray(hi) << shift) | (a & lowMask)
	}
}

// EncodePlanes implements PlaneEncoder. ToGray is GF(2)-linear, so the
// whole transform is one XOR per plane: for planes at or above the
// stride shift, encoded plane b is a_b ^ a_{b+1} (with the plane at the
// payload width reading as zero, which is exactly the masking the
// scalar encoder applies); planes below the shift pass through.
func (g *Gray) EncodePlanes(blk *PlaneBlock, scratch *[64]uint64) (*[64]uint64, uint64) {
	a := blk.A
	shift := int(g.shift)
	for b := 0; b < shift; b++ {
		scratch[b] = a[b]
	}
	top := g.width - 1 // constructor guarantees shift < width
	if top > 63 {
		top = 63 // unreachable; aids bounds-check elimination
	}
	for b := shift; b < top; b++ {
		scratch[b] = a[b] ^ a[b+1]
	}
	scratch[top] = a[top]
	la := blk.Last & g.mask
	return scratch, (ToGray(la>>g.shift) << g.shift) | (la & g.lowMask)
}

// deltaStride implements deltaCodec.
func (g *Gray) deltaStride() uint64 { return g.stride }

// deltaSlot implements deltaCodec. The code is linear over XOR, so the
// words of a and prev differ in the code of their XOR.
func (g *Gray) deltaSlot() int { return slotGray }

// ToGray converts a binary value to its reflected Gray code.
func ToGray(b uint64) uint64 { return b ^ (b >> 1) }

// FromGray converts a reflected Gray code back to binary using the
// logarithmic prefix-XOR.
func FromGray(g uint64) uint64 {
	g ^= g >> 32
	g ^= g >> 16
	g ^= g >> 8
	g ^= g >> 4
	g ^= g >> 2
	g ^= g >> 1
	return g
}
