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

// seqMasks implements seqCodec: dual T0_BI prices from the dual and
// sel masks.
func (t *DualT0BI) seqMasks() (uint64, seqNeed) { return t.stride, needDual }

// priceSeq implements seqEncoder. The payload lines freeze under INCV
// on the dual lanes, and data lanes may invert over the N lines, INCV
// doubling as INV. The payload holds the last lane outside the mask,
// inverted when pol is 1. While it is plain and no data lane's distance
// d could invert (2(d+1) <= N; data lanes are never dual, so they all
// have one), INCV is raised on the dual lanes alone and dual T0_BI prices
// as dual T0 does (priceFrozen).
func (e *dualT0BIEncoder) priceSeq(b *seqBlock, r *seqRun) {
	t := e.t
	v := &b.dual
	pol := b2u(e.prevWord&t.mask != v.last)
	most := 0
	for w := b.valid &^ b.sel; w != 0; w &= w - 1 {
		most = max(most, int(v.dist[bits.TrailingZeros64(w)&63]))
	}
	if pol == 0 && 2*(most+1) <= t.width {
		priceFrozen(b, v, t.incvBit, r)
		e.prevWord = r.last
	} else {
		e.prevWord = e.walk(b, v, pol, r)
	}
	e.ref, e.refValid = b.ref, b.refValid
}

// walk prices a block that may invert. A lane's plain toggles come from
// the mask's distances before the invert decision needs them; incv is
// the INCV line. The decisions are branch-free selects. Only the lanes
// invertWalk returns are walked: every other lane repeats the word
// before it. It returns the word on the bus after the block.
func (e *dualT0BIEncoder) walk(b *seqBlock, v *runMask, pol uint64, r *seqRun) uint64 {
	t := e.t
	m, data, width := v.m, ^b.sel, t.width
	incv := e.prevWord >> (t.incvBit & 63)
	total, mx := r.transitions, r.max
	for w := invertWalk(b, v); w != 0; w &= w - 1 {
		low := w & -w
		frozen := b2u(m&low != 0)
		plain := int(v.dist[bits.TrailingZeros64(w)&63]) // payload toggles if the lane goes out plain
		if pol != 0 {
			plain = width - plain
		}
		flip := b2u(2*(plain+int(incv)) > width) & b2u(data&low != 0) &^ frozen
		payload := plain
		if flip != 0 {
			payload = width - plain
		}
		if frozen != 0 {
			payload = 0
		}
		next := frozen | flip
		c := payload + int(incv^next)
		total += int64(c)
		mx = max(mx, c)
		pol = pol&frozen | flip
		incv = next
	}
	if r.perLine != nil {
		perLineInverting(b, v, ^b.sel, e.prevWord, t.mask, 1<<t.incvBit, 1<<t.incvBit, width, r.perLine)
	}
	r.transitions, r.max = total, mx
	r.last = v.lastOut ^ t.mask&-pol | incv<<(t.incvBit&63)
	return r.last
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
