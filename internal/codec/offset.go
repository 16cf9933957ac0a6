package codec

import "busenc/internal/bus"

func init() {
	Register("offset", func(width int, _ Options) (Codec, error) {
		return NewOffset(width)
	})
}

// Offset is an irredundant difference code (EXTENSION — not in the DATE'98
// paper, but a standard point of comparison in the later bus-encoding
// literature): the word transmitted is the two's-complement difference
// between the current and the previous address. An unlimited in-sequence
// stream transmits the constant stride after the first reference, so —
// like T0 — its asymptotic cost is zero transitions per address, without a
// redundant line; unlike T0, a single corrupted word desynchronizes the
// receiver, and random streams see avalanche on the subtractor output.
type Offset struct {
	width int
	mask  uint64
}

// NewOffset returns the offset (difference) code over width lines.
func NewOffset(width int) (*Offset, error) {
	if err := checkWidth("offset", width, 0); err != nil {
		return nil, err
	}
	return &Offset{width: width, mask: bus.Mask(width)}, nil
}

// Name implements Codec.
func (o *Offset) Name() string { return "offset" }

// PayloadWidth implements Codec.
func (o *Offset) PayloadWidth() int { return o.width }

// BusWidth implements Codec.
func (o *Offset) BusWidth() int { return o.width }

// NewEncoder implements Codec.
func (o *Offset) NewEncoder() Encoder { return &offsetEncoder{o: o} }

// NewDecoder implements Codec.
func (o *Offset) NewDecoder() Decoder { return &offsetDecoder{o: o} }

type offsetEncoder struct {
	o    *Offset
	prev uint64
}

func (e *offsetEncoder) Encode(s Symbol) uint64 {
	addr := s.Addr & e.o.mask
	out := (addr - e.prev) & e.o.mask
	e.prev = addr
	return out
}

func (e *offsetEncoder) Reset() { e.prev = 0 }

// offsetState is the shared Snapshot payload of both offset ends: the
// previously seen masked address.
type offsetState struct{ prev uint64 }

// Snapshot implements StateCodec.
func (e *offsetEncoder) Snapshot() State { return offsetState{e.prev} }

// Restore implements StateCodec.
func (e *offsetEncoder) Restore(st State) { e.prev = st.(offsetState).prev }

// SeedFrom implements Seeder: the encoder state is exactly the previous
// masked address.
func (e *offsetEncoder) SeedFrom(prev Symbol) { e.prev = prev.Addr & e.o.mask }

// EncodePlanes implements PlaneEncoder. Lane i of the output is
// (a_i - a_{i-1}) mod 2^width: build the lane-shifted predecessor
// planes p (a shifted up one lane, with the pre-block address feeding
// lane 0 — zero when First, matching a fresh encoder) and run a
// bit-sliced borrow subtract a - p. The borrow chain runs across
// planes but stays within each lane, so 64 independent subtracts cost
// one ripple pass.
func (o *Offset) EncodePlanes(blk *PlaneBlock, scratch *[64]uint64) (*[64]uint64, uint64) {
	a := blk.A
	prev := blk.PrevRaw & o.mask // zero when blk.First
	width := o.width
	if width > 64 {
		width = 64 // unreachable; aids bounds-check elimination
	}
	var bor uint64
	for b := 0; b < width; b++ {
		ab := a[b]
		pb := ab<<1 | (prev>>uint(b))&1
		x := ab ^ pb
		scratch[b] = x ^ bor
		bor = ^ab&pb | ^x&bor
	}
	return scratch, (blk.Last - blk.Prev2) & o.mask
}

// deltaStride implements deltaCodec: the difference needs no stride.
func (o *Offset) deltaStride() uint64 { return 0 }

// deltaSlot implements deltaCodec: each word is a - prev.
func (o *Offset) deltaSlot() int { return slotOff }

type offsetDecoder struct {
	o    *Offset
	prev uint64
}

func (d *offsetDecoder) Decode(word uint64, _ bool) uint64 {
	addr := (d.prev + word) & d.o.mask
	d.prev = addr
	return addr
}

func (d *offsetDecoder) Reset() { d.prev = 0 }

// Snapshot implements StateCodec.
func (d *offsetDecoder) Snapshot() State { return offsetState{d.prev} }

// Restore implements StateCodec.
func (d *offsetDecoder) Restore(st State) { d.prev = st.(offsetState).prev }

// SeedFrom implements Seeder, so shard verification can seed a
// mid-stream decoder from the last prefix address.
func (d *offsetDecoder) SeedFrom(prev Symbol) { d.prev = prev.Addr & d.o.mask }
