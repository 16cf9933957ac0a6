package codec

import (
	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("binary", func(width int, _ Options) (Codec, error) {
		return NewBinary(width)
	})
}

// Binary is the identity code: the address is driven on the lines as is.
// It needs no redundant lines and no codec circuitry; every savings figure
// in the paper is measured against it.
type Binary struct {
	width int
	mask  uint64
}

// NewBinary returns the binary (identity) code over width address lines.
func NewBinary(width int) (*Binary, error) {
	if err := checkWidth("binary", width, 0); err != nil {
		return nil, err
	}
	return &Binary{width: width, mask: bus.Mask(width)}, nil
}

// Name implements Codec.
func (b *Binary) Name() string { return "binary" }

// PayloadWidth implements Codec.
func (b *Binary) PayloadWidth() int { return b.width }

// BusWidth implements Codec.
func (b *Binary) BusWidth() int { return b.width }

// NewEncoder implements Codec.
func (b *Binary) NewEncoder() Encoder { return binaryEnd{b.mask} }

// NewDecoder implements Codec.
func (b *Binary) NewDecoder() Decoder { return binaryEnd{b.mask} }

type binaryEnd struct{ mask uint64 }

func (e binaryEnd) Encode(s Symbol) uint64            { return s.Addr & e.mask }
func (e binaryEnd) Decode(word uint64, _ bool) uint64 { return word & e.mask }
func (e binaryEnd) Reset()                            {}

// Snapshot implements StateCodec; the binary code is stateless.
func (e binaryEnd) Snapshot() State { return nil }

// Restore implements StateCodec.
func (e binaryEnd) Restore(State) {}

// SeedFrom implements Seeder: nothing to seed.
func (e binaryEnd) SeedFrom(Symbol) {}

// EncodeBatch implements BatchEncoder.
func (e binaryEnd) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	mask := e.mask
	out = out[:len(addrs)]
	for i, a := range addrs {
		out[i] = a & mask
	}
}

// EncodePlanes implements PlaneEncoder: the identity code's encoded
// planes are the address planes themselves (the bus never reads planes
// at or above the width, so no masking is needed).
func (b *Binary) EncodePlanes(blk *PlaneBlock, _ *[64]uint64) (*[64]uint64, uint64) {
	return blk.A, blk.Last & b.mask
}

// deltaStride implements deltaCodec: the identity code predicts nothing.
func (b *Binary) deltaStride() uint64 { return 0 }

// deltaSlot implements deltaCodec: a cycle costs popcount(a ^ prev).
func (b *Binary) deltaSlot() int { return slotBin }
