package codec

import (
	"fmt"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("t0", func(width int, opts Options) (Codec, error) {
		return NewT0(width, opts.stride())
	})
}

// T0 is the asymptotic zero-transition code of Benini et al. (GLSVLSI'97):
// a redundant INC line signals that the current address equals the
// previous one plus the stride S. While INC is asserted the address lines
// are frozen at their previous value, so an unlimited in-sequence stream
// costs zero transitions per emitted address; the receiver regenerates the
// addresses by adding S.
type T0 struct {
	width  int
	mask   uint64
	stride uint64
	incBit uint
}

// NewT0 returns the T0 code over width lines with in-sequence stride S (a
// power of two, reflecting the addressability of the architecture).
func NewT0(width int, stride uint64) (*T0, error) {
	if err := checkWidth("t0", width, 1); err != nil {
		return nil, err
	}
	if stride == 0 || stride&(stride-1) != 0 {
		return nil, fmt.Errorf("codec t0: stride must be a power of two, got %d", stride)
	}
	return &T0{width: width, mask: bus.Mask(width), stride: stride, incBit: uint(width)}, nil
}

// Name implements Codec.
func (t *T0) Name() string { return "t0" }

// PayloadWidth implements Codec.
func (t *T0) PayloadWidth() int { return t.width }

// BusWidth implements Codec.
func (t *T0) BusWidth() int { return t.width + 1 }

// NewEncoder implements Codec.
func (t *T0) NewEncoder() Encoder { return &t0Encoder{t: t} }

// NewDecoder implements Codec.
func (t *T0) NewDecoder() Decoder { return &t0Decoder{t: t} }

type t0Encoder struct {
	t        *T0
	prevAddr uint64 // previous raw address b(t-1)
	prevBus  uint64 // previous payload lines B(t-1)
	valid    bool
}

func (e *t0Encoder) Encode(s Symbol) uint64 {
	addr := s.Addr & e.t.mask
	var out uint64
	if e.valid && addr == (e.prevAddr+e.t.stride)&e.t.mask {
		// In sequence: freeze the address lines, assert INC (eq. 3).
		out = e.prevBus | 1<<e.t.incBit
	} else {
		out = addr
		e.prevBus = addr
	}
	e.prevAddr = addr
	e.valid = true
	return out
}

func (e *t0Encoder) Reset() { e.prevAddr, e.prevBus, e.valid = 0, 0, false }

// t0State is the Snapshot payload. prevBus (the frozen payload lines)
// is a prefix function — it holds the last out-of-sequence address —
// so T0 is a sweep codec, not a Seeder.
type t0State struct {
	prevAddr uint64
	prevBus  uint64
	valid    bool
}

// Snapshot implements StateCodec.
func (e *t0Encoder) Snapshot() State { return t0State{e.prevAddr, e.prevBus, e.valid} }

// Restore implements StateCodec.
func (e *t0Encoder) Restore(st State) {
	s := st.(t0State)
	e.prevAddr, e.prevBus, e.valid = s.prevAddr, s.prevBus, s.valid
}

// EncodeBatch implements BatchEncoder: the chunk loop keeps the encoder
// state in locals, paying the pointer writes once per chunk.
func (e *t0Encoder) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	mask, stride := e.t.mask, e.t.stride
	incMask := uint64(1) << e.t.incBit
	prevAddr, prevBus, valid := e.prevAddr, e.prevBus, e.valid
	out = out[:len(addrs)]
	for i, a := range addrs {
		addr := a & mask
		if valid && addr == (prevAddr+stride)&mask {
			out[i] = prevBus | incMask
		} else {
			out[i] = addr
			prevBus = addr
		}
		prevAddr = addr
		valid = true
	}
	e.prevAddr, e.prevBus, e.valid = prevAddr, prevBus, valid
}

// seqMasks implements seqCodec: T0 prices from the seq mask.
func (t *T0) seqMasks() (uint64, seqNeed) { return t.stride, needSeq }

// priceSeq implements seqEncoder: the payload lines freeze on the seq
// lanes (priceFrozen).
func (e *t0Encoder) priceSeq(b *seqBlock, r *seqRun) {
	priceFrozen(b, &b.seq, e.t.incBit, r)
	e.prevAddr, e.prevBus, e.valid = b.prev, b.seq.lastOut, true
}

type t0Decoder struct {
	t        *T0
	prevAddr uint64
}

func (d *t0Decoder) Decode(word uint64, _ bool) uint64 {
	var addr uint64
	if word&(1<<d.t.incBit) != 0 {
		addr = (d.prevAddr + d.t.stride) & d.t.mask
	} else {
		addr = word & d.t.mask
	}
	d.prevAddr = addr
	return addr
}

func (d *t0Decoder) Reset() { d.prevAddr = 0 }
