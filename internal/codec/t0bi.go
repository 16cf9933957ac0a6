package codec

import (
	"fmt"
	"math/bits"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("t0bi", func(width int, opts Options) (Codec, error) {
		return NewT0BI(width, opts.stride())
	})
}

// T0BI is the first mixed code of the paper (Section 3.1): two redundant
// lines, INC and INV. In-sequence addresses freeze the bus with INC
// asserted, exactly as in T0; out-of-sequence addresses fall back to
// bus-invert over the N+2 lines, with threshold (N+2)/2 (eq. 6):
//
//	(B, INC, INV) = (B(t-1), 1, 0)  if b(t) = b(t-1) + S
//	              = (b(t),   0, 0)  if not in seq and H <= (N+2)/2
//	              = (~b(t),  0, 1)  if not in seq and H >  (N+2)/2
//
// where H is the Hamming distance between the previous encoded word
// (including both redundant lines) and b(t) extended with INC=INV=0.
type T0BI struct {
	width  int
	mask   uint64
	stride uint64
	incBit uint
	invBit uint
}

// NewT0BI returns the T0_BI code over width lines with stride S.
func NewT0BI(width int, stride uint64) (*T0BI, error) {
	if err := checkWidth("t0bi", width, 2); err != nil {
		return nil, err
	}
	if stride == 0 || stride&(stride-1) != 0 {
		return nil, fmt.Errorf("codec t0bi: stride must be a power of two, got %d", stride)
	}
	return &T0BI{
		width:  width,
		mask:   bus.Mask(width),
		stride: stride,
		incBit: uint(width),
		invBit: uint(width + 1),
	}, nil
}

// Name implements Codec.
func (t *T0BI) Name() string { return "t0bi" }

// PayloadWidth implements Codec.
func (t *T0BI) PayloadWidth() int { return t.width }

// BusWidth implements Codec.
func (t *T0BI) BusWidth() int { return t.width + 2 }

// NewEncoder implements Codec.
func (t *T0BI) NewEncoder() Encoder { return &t0biEncoder{t: t} }

// NewDecoder implements Codec.
func (t *T0BI) NewDecoder() Decoder { return &t0biDecoder{t: t} }

type t0biEncoder struct {
	t        *T0BI
	prevAddr uint64 // previous raw address
	prevWord uint64 // previous encoded word incl. INC and INV lines
	valid    bool
}

func (e *t0biEncoder) Encode(s Symbol) uint64 {
	t := e.t
	addr := s.Addr & t.mask
	var out uint64
	switch {
	case e.valid && addr == (e.prevAddr+t.stride)&t.mask:
		// Freeze payload, assert INC, de-assert INV.
		out = (e.prevWord & t.mask) | 1<<t.incBit
	default:
		h := bits.OnesCount64(e.prevWord ^ addr)
		if 2*h > t.width+2 {
			out = (^addr & t.mask) | 1<<t.invBit
		} else {
			out = addr
		}
	}
	e.prevAddr = addr
	e.prevWord = out
	e.valid = true
	return out
}

func (e *t0biEncoder) Reset() { e.prevAddr, e.prevWord, e.valid = 0, 0, false }

// t0biState is the Snapshot payload; prevWord chains through every
// prior invert/freeze decision, so T0_BI is a sweep codec.
type t0biState struct {
	prevAddr uint64
	prevWord uint64
	valid    bool
}

// Snapshot implements StateCodec.
func (e *t0biEncoder) Snapshot() State { return t0biState{e.prevAddr, e.prevWord, e.valid} }

// Restore implements StateCodec.
func (e *t0biEncoder) Restore(st State) {
	s := st.(t0biState)
	e.prevAddr, e.prevWord, e.valid = s.prevAddr, s.prevWord, s.valid
}

// EncodeBatch implements BatchEncoder with the encoder state in locals.
func (e *t0biEncoder) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	t := e.t
	mask, stride, width := t.mask, t.stride, t.width
	incMask := uint64(1) << t.incBit
	invMask := uint64(1) << t.invBit
	prevAddr, prevWord, valid := e.prevAddr, e.prevWord, e.valid
	out = out[:len(addrs)]
	for i, a := range addrs {
		addr := a & mask
		var w uint64
		if valid && addr == (prevAddr+stride)&mask {
			w = (prevWord & mask) | incMask
		} else if h := bits.OnesCount64(prevWord ^ addr); 2*h > width+2 {
			w = (^addr & mask) | invMask
		} else {
			w = addr
		}
		prevAddr = addr
		prevWord = w
		valid = true
		out[i] = w
	}
	e.prevAddr, e.prevWord, e.valid = prevAddr, prevWord, valid
}

// seqMasks implements seqCodec: T0_BI prices from the seq mask.
func (t *T0BI) seqMasks() (uint64, seqNeed) { return t.stride, needSeq }

// priceSeq implements seqEncoder. The payload lines freeze under INC on
// the seq lanes, and every other lane may invert over the N+2 lines. The
// payload holds the last lane outside the mask, inverted when pol is 1.
// While it is plain and no lane's distance d could invert (2(d+1) <=
// N+2), INV stays low all block and T0_BI prices as T0 does
// (priceFrozen).
func (e *t0biEncoder) priceSeq(b *seqBlock, r *seqRun) {
	t := e.t
	v := &b.seq
	pol := b2u(e.prevWord&t.mask != v.last)
	if pol == 0 && 2*(v.most+1) <= t.width+2 {
		priceFrozen(b, v, t.incBit, r)
		e.prevWord = r.last
	} else {
		e.prevWord = e.walk(b, v, pol, r)
	}
	e.prevAddr, e.valid = b.prev, true
}

// walk prices a block that may invert. A lane's plain toggles come from
// the mask's distances before the invert decision needs them; red holds
// INC (bit 0) and INV (bit 1). The decisions are branch-free selects.
// Only the lanes invertWalk returns are walked: every other lane repeats
// the word before it. It returns the word on the bus after the block.
func (e *t0biEncoder) walk(b *seqBlock, v *runMask, pol uint64, r *seqRun) uint64 {
	t := e.t
	m, width := v.m, t.width
	red := e.prevWord >> (t.incBit & 63)
	total, mx := r.transitions, r.max
	for w := invertWalk(b, v); w != 0; w &= w - 1 {
		low := w & -w
		frozen := b2u(m&low != 0)
		plain := int(v.dist[bits.TrailingZeros64(w)&63]) // payload toggles if the lane goes out plain
		if pol != 0 {
			plain = width - plain
		}
		flip := b2u(2*(plain+int(b2u(red != 0))) > width+2) &^ frozen
		payload := plain
		if flip != 0 {
			payload = width - plain
		}
		if frozen != 0 {
			payload = 0
		}
		next := frozen | flip<<1
		x := red ^ next
		c := payload + int(x-x>>1)
		total += int64(c)
		mx = max(mx, c)
		pol = pol&frozen | flip
		red = next
	}
	if r.perLine != nil {
		perLineInverting(b, v, ^uint64(0), e.prevWord, t.mask, 1<<t.incBit, 1<<t.invBit, width+2, r.perLine)
	}
	r.transitions, r.max = total, mx
	r.last = v.lastOut ^ t.mask&-pol | red<<(t.incBit&63)
	return r.last
}

type t0biDecoder struct {
	t        *T0BI
	prevAddr uint64
}

func (d *t0biDecoder) Decode(word uint64, _ bool) uint64 {
	t := d.t
	var addr uint64
	switch {
	case word&(1<<t.incBit) != 0:
		addr = (d.prevAddr + t.stride) & t.mask
	case word&(1<<t.invBit) != 0:
		addr = ^word & t.mask
	default:
		addr = word & t.mask
	}
	d.prevAddr = addr
	return addr
}

func (d *t0biDecoder) Reset() { d.prevAddr = 0 }
