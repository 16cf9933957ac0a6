package codec

import (
	"fmt"
	"math/bits"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("dualt0bi", func(width int, opts Options) (Codec, error) {
		return NewDualT0BI(width, opts.stride())
	})
}

// DualT0BI is the paper's headline code (Section 3.3), for multiplexed
// address buses: a single redundant line INCV combines the roles of INC
// and INV. The T0 code is applied to the instruction sub-stream (SEL=1)
// and bus-invert to the data sub-stream (SEL=0), the receiver telling the
// two meanings of INCV apart via SEL (eq. 11/12):
//
//	(B, INCV) = (B(t-1), 1)  if SEL=1 and b(t) = ref + S
//	          = (~b(t),  1)  if SEL=0 and H(t) > N/2
//	          = (b(t),   0)  otherwise
//
// with H(t) the Hamming distance between the previous encoded word
// (including INCV) and b(t) extended with INCV=0, and ref the most recent
// instruction address (updated only on SEL=1 cycles).
type DualT0BI struct {
	width   int
	mask    uint64
	stride  uint64
	incvBit uint
}

// NewDualT0BI returns the dual T0_BI code over width lines with stride S.
func NewDualT0BI(width int, stride uint64) (*DualT0BI, error) {
	if err := checkWidth("dualt0bi", width, 1); err != nil {
		return nil, err
	}
	if stride == 0 || stride&(stride-1) != 0 {
		return nil, fmt.Errorf("codec dualt0bi: stride must be a power of two, got %d", stride)
	}
	return &DualT0BI{width: width, mask: bus.Mask(width), stride: stride, incvBit: uint(width)}, nil
}

// Name implements Codec.
func (t *DualT0BI) Name() string { return "dualt0bi" }

// PayloadWidth implements Codec.
func (t *DualT0BI) PayloadWidth() int { return t.width }

// BusWidth implements Codec.
func (t *DualT0BI) BusWidth() int { return t.width + 1 }

// NewEncoder implements Codec.
func (t *DualT0BI) NewEncoder() Encoder { return &dualT0BIEncoder{t: t} }

// NewDecoder implements Codec.
func (t *DualT0BI) NewDecoder() Decoder { return &dualT0BIDecoder{t: t} }

type dualT0BIEncoder struct {
	t        *DualT0BI
	ref      uint64 // last instruction address
	refValid bool
	prevWord uint64 // previous encoded word incl. INCV
}

func (e *dualT0BIEncoder) Encode(s Symbol) uint64 {
	t := e.t
	addr := s.Addr & t.mask
	var out uint64
	switch {
	case s.Sel && e.refValid && addr == (e.ref+t.stride)&t.mask:
		// Instruction in sequence: freeze payload, assert INCV.
		out = (e.prevWord & t.mask) | 1<<t.incvBit
	case !s.Sel && 2*bits.OnesCount64(e.prevWord^addr) > t.width:
		// Data address far from the current bus state: invert it.
		out = (^addr & t.mask) | 1<<t.incvBit
	default:
		out = addr
	}
	if s.Sel {
		e.ref = addr
		e.refValid = true
	}
	e.prevWord = out
	return out
}

func (e *dualT0BIEncoder) Reset() { e.ref, e.refValid, e.prevWord = 0, false, 0 }

// dualT0BIState is the Snapshot payload; both fields are prefix
// functions, so dual T0_BI is a sweep codec.
type dualT0BIState struct {
	ref      uint64
	refValid bool
	prevWord uint64
}

// Snapshot implements StateCodec.
func (e *dualT0BIEncoder) Snapshot() State { return dualT0BIState{e.ref, e.refValid, e.prevWord} }

// Restore implements StateCodec.
func (e *dualT0BIEncoder) Restore(st State) {
	s := st.(dualT0BIState)
	e.ref, e.refValid, e.prevWord = s.ref, s.refValid, s.prevWord
}

// EncodeBatch implements BatchEncoder with the encoder state in locals.
// SEL is kinds[i] == trace.Instr.
func (e *dualT0BIEncoder) EncodeBatch(addrs []uint64, kinds []trace.Kind, out []uint64) {
	t := e.t
	mask, stride, width := t.mask, t.stride, t.width
	incvMask := uint64(1) << t.incvBit
	ref, refValid, prevWord := e.ref, e.refValid, e.prevWord
	kinds, out = kinds[:len(addrs)], out[:len(addrs)]
	for i, a := range addrs {
		addr := a & mask
		sel := kinds[i] == trace.Instr
		var w uint64
		switch {
		case sel && refValid && addr == (ref+stride)&mask:
			w = (prevWord & mask) | incvMask
		case !sel && 2*bits.OnesCount64(prevWord^addr) > width:
			w = (^addr & mask) | incvMask
		default:
			w = addr
		}
		if sel {
			ref = addr
			refValid = true
		}
		prevWord = w
		out[i] = w
	}
	e.ref, e.refValid, e.prevWord = ref, refValid, prevWord
}

type dualT0BIDecoder struct {
	t   *DualT0BI
	ref uint64
}

func (d *dualT0BIDecoder) Decode(word uint64, sel bool) uint64 {
	t := d.t
	var addr uint64
	switch {
	case word&(1<<t.incvBit) != 0 && sel:
		addr = (d.ref + t.stride) & t.mask
	case word&(1<<t.incvBit) != 0:
		addr = ^word & t.mask
	default:
		addr = word & t.mask
	}
	if sel {
		d.ref = addr
	}
	return addr
}

func (d *dualT0BIDecoder) Reset() { d.ref = 0 }
