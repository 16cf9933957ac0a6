package codec

import (
	"fmt"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("dualt0", func(width int, opts Options) (Codec, error) {
		return NewDualT0(width, opts.stride())
	})
}

// DualT0 is the paper's second mixed code (Section 3.2), for multiplexed
// address buses. The SEL control signal — already present on a standard
// muxed bus interface — is asserted when an instruction address (stream
// alpha) is transmitted. The T0 code is applied, and the reference
// registers updated, only when SEL is asserted; data addresses (stream
// beta) are transmitted in plain binary while the registers hold (eq. 8/9):
//
//	(B, INC) = (B(t-1), 1)  if SEL=1 and b(t) = ref + S
//	         = (b(t),   0)  otherwise
//
// where ref is the most recent instruction address (updated only on SEL=1
// cycles). Note that the frozen value B(t-1) may be a data address — the
// receiver reconstructs the instruction address as ref + S regardless.
type DualT0 struct {
	width  int
	mask   uint64
	stride uint64
	incBit uint
}

// NewDualT0 returns the dual T0 code over width lines with stride S.
func NewDualT0(width int, stride uint64) (*DualT0, error) {
	if err := checkWidth("dualt0", width, 1); err != nil {
		return nil, err
	}
	if stride == 0 || stride&(stride-1) != 0 {
		return nil, fmt.Errorf("codec dualt0: stride must be a power of two, got %d", stride)
	}
	return &DualT0{width: width, mask: bus.Mask(width), stride: stride, incBit: uint(width)}, nil
}

// Name implements Codec.
func (t *DualT0) Name() string { return "dualt0" }

// PayloadWidth implements Codec.
func (t *DualT0) PayloadWidth() int { return t.width }

// BusWidth implements Codec.
func (t *DualT0) BusWidth() int { return t.width + 1 }

// NewEncoder implements Codec.
func (t *DualT0) NewEncoder() Encoder { return &dualT0Encoder{t: t} }

// NewDecoder implements Codec.
func (t *DualT0) NewDecoder() Decoder { return &dualT0Decoder{t: t} }

type dualT0Encoder struct {
	t        *DualT0
	ref      uint64 // last instruction address (~b of eq. 9)
	refValid bool
	prevBus  uint64 // previous payload lines
}

func (e *dualT0Encoder) Encode(s Symbol) uint64 {
	t := e.t
	addr := s.Addr & t.mask
	var out uint64
	if s.Sel && e.refValid && addr == (e.ref+t.stride)&t.mask {
		out = e.prevBus | 1<<t.incBit
	} else {
		out = addr
		e.prevBus = addr
	}
	if s.Sel {
		e.ref = addr
		e.refValid = true
	}
	return out
}

func (e *dualT0Encoder) Reset() { e.ref, e.refValid, e.prevBus = 0, false, 0 }

// dualT0State is the Snapshot payload; ref is the most recent SEL=1
// address anywhere in the prefix, so dual T0 is a sweep codec.
type dualT0State struct {
	ref      uint64
	refValid bool
	prevBus  uint64
}

// Snapshot implements StateCodec.
func (e *dualT0Encoder) Snapshot() State { return dualT0State{e.ref, e.refValid, e.prevBus} }

// Restore implements StateCodec.
func (e *dualT0Encoder) Restore(st State) {
	s := st.(dualT0State)
	e.ref, e.refValid, e.prevBus = s.ref, s.refValid, s.prevBus
}

// EncodeBatch implements BatchEncoder with the encoder state in locals.
// SEL is kinds[i] == trace.Instr.
func (e *dualT0Encoder) EncodeBatch(addrs []uint64, kinds []trace.Kind, out []uint64) {
	t := e.t
	mask, stride := t.mask, t.stride
	incMask := uint64(1) << t.incBit
	ref, refValid, prevBus := e.ref, e.refValid, e.prevBus
	kinds, out = kinds[:len(addrs)], out[:len(addrs)]
	for i, a := range addrs {
		addr := a & mask
		sel := kinds[i] == trace.Instr
		if sel && refValid && addr == (ref+stride)&mask {
			out[i] = prevBus | incMask
		} else {
			out[i] = addr
			prevBus = addr
		}
		if sel {
			ref = addr
			refValid = true
		}
	}
	e.ref, e.refValid, e.prevBus = ref, refValid, prevBus
}

// seqMasks implements seqCodec: dual T0 prices from the dual mask.
func (t *DualT0) seqMasks() (uint64, seqNeed) { return t.stride, needDual }

// priceSeq implements seqEncoder: the payload lines freeze on the dual
// lanes (priceFrozen).
func (e *dualT0Encoder) priceSeq(b *seqBlock, r *seqRun) {
	priceFrozen(b, &b.dual, e.t.incBit, r)
	e.ref, e.refValid, e.prevBus = b.ref, b.refValid, b.dual.lastOut
}

type dualT0Decoder struct {
	t   *DualT0
	ref uint64
}

func (d *dualT0Decoder) Decode(word uint64, sel bool) uint64 {
	t := d.t
	var addr uint64
	if word&(1<<t.incBit) != 0 {
		addr = (d.ref + t.stride) & t.mask
	} else {
		addr = word & t.mask
	}
	if sel {
		d.ref = addr
	}
	return addr
}

func (d *dualT0Decoder) Reset() { d.ref = 0 }
