package codec

import (
	"fmt"
	"math/bits"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("businvert", func(width int, opts Options) (Codec, error) {
		return NewBusInvert(width, opts.partitions())
	})
}

// BusInvert is the redundant code of Stan and Burleson: if the Hamming
// distance between the previously transmitted word (including the INV
// line) and the new address exceeds N/2, the address is sent with inverted
// polarity and INV is asserted. The per-cycle transition count is thereby
// capped at ceil((N+1)/2), and for temporally random data the average is
// reduced below N/2.
//
// Partitions > 1 selects the partitioned variant also proposed by Stan and
// Burleson: the lines are split into contiguous groups with one INV line
// and an independent invert decision each, which improves the expected
// savings for wide buses at the cost of extra redundant lines. The
// partition extension is beyond the DATE'98 paper's experiments.
type BusInvert struct {
	width      int
	partitions int
	groups     []group
}

type group struct {
	lo, width int
	mask      uint64 // payload mask, shifted into place
	invBit    uint   // bit position of this group's INV line
}

// NewBusInvert returns the bus-invert code over width lines split into the
// given number of partitions (1 = the classic code).
func NewBusInvert(width, partitions int) (*BusInvert, error) {
	if partitions <= 0 {
		partitions = 1
	}
	if err := checkWidth("businvert", width, partitions); err != nil {
		return nil, err
	}
	if partitions > width {
		return nil, fmt.Errorf("codec businvert: %d partitions exceed %d lines", partitions, width)
	}
	bi := &BusInvert{width: width, partitions: partitions}
	base := width / partitions
	rem := width % partitions
	lo := 0
	for i := 0; i < partitions; i++ {
		w := base
		if i < rem {
			w++
		}
		bi.groups = append(bi.groups, group{
			lo:     lo,
			width:  w,
			mask:   bus.Mask(w) << uint(lo),
			invBit: uint(width + i),
		})
		lo += w
	}
	return bi, nil
}

// Name implements Codec.
func (bi *BusInvert) Name() string { return "businvert" }

// PayloadWidth implements Codec.
func (bi *BusInvert) PayloadWidth() int { return bi.width }

// BusWidth implements Codec.
func (bi *BusInvert) BusWidth() int { return bi.width + bi.partitions }

// NewEncoder implements Codec.
func (bi *BusInvert) NewEncoder() Encoder { return &biEncoder{bi: bi} }

// NewDecoder implements Codec.
func (bi *BusInvert) NewDecoder() Decoder { return biDecoder{bi} }

type biEncoder struct {
	bi   *BusInvert
	prev uint64 // previous encoded word including INV lines
}

func (e *biEncoder) Encode(s Symbol) uint64 {
	out := uint64(0)
	for _, g := range e.bi.groups {
		payload := s.Addr & g.mask
		// Hamming distance over the group's payload lines plus its INV
		// line; the candidate word carries INV=0 (eq. 1 of the paper).
		prevGroup := e.prev & (g.mask | 1<<g.invBit)
		h := bits.OnesCount64(prevGroup ^ payload)
		if 2*h > g.width {
			out |= (^payload & g.mask) | 1<<g.invBit
		} else {
			out |= payload
		}
	}
	e.prev = out
	return out
}

func (e *biEncoder) Reset() { e.prev = 0 }

// biState is the Snapshot payload: the previous encoded word. It is a
// prefix function (the invert decision chains through every prior
// word), so the encoder is a sweep codec, not a Seeder.
type biState struct{ prev uint64 }

// Snapshot implements StateCodec.
func (e *biEncoder) Snapshot() State { return biState{e.prev} }

// Restore implements StateCodec.
func (e *biEncoder) Restore(st State) { e.prev = st.(biState).prev }

// EncodeBatch implements BatchEncoder. The single-partition case (the
// classic code, used by every paper table) gets a dedicated loop without
// the per-group iteration; partitioned variants fall back to the general
// group loop with the state held in a local.
func (e *biEncoder) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	prev := e.prev
	out = out[:len(addrs)]
	if len(e.bi.groups) == 1 {
		g := e.bi.groups[0]
		invMask := uint64(1) << g.invBit
		sel := g.mask | invMask
		for i, a := range addrs {
			payload := a & g.mask
			h := bits.OnesCount64((prev & sel) ^ payload)
			if 2*h > g.width {
				prev = (^payload & g.mask) | invMask
			} else {
				prev = payload
			}
			out[i] = prev
		}
		e.prev = prev
		return
	}
	for i, a := range addrs {
		word := uint64(0)
		for _, g := range e.bi.groups {
			payload := a & g.mask
			prevGroup := prev & (g.mask | 1<<g.invBit)
			h := bits.OnesCount64(prevGroup ^ payload)
			if 2*h > g.width {
				word |= (^payload & g.mask) | 1<<g.invBit
			} else {
				word |= payload
			}
		}
		prev = word
		out[i] = word
	}
	e.prev = prev
}

// deltaStride implements deltaCodec: bus-invert predicts nothing.
func (bi *BusInvert) deltaStride() uint64 { return 0 }

// deltaSlot implements deltaCodec: the delta group's walk prices the
// classic code, priceDelta the partitioned one.
func (bi *BusInvert) deltaSlot() int {
	if len(bi.groups) == 1 {
		return slotInv
	}
	return slotOwn
}

// priceDelta implements deltaPricer for the partitioned code; the
// delta group's walk prices the classic one. Each partition prices as
// the classic code does (countInv): with b of its N lines toggling,
// min(b, N+1-b), whichever polarity its INV line held.
func (bi *BusInvert) priceDelta(addrs []uint64, prev uint64, r *deltaRun) {
	mask := bus.Mask(bi.width)
	inv := r.last &^ mask // the INV lines
	total, mx := 0, r.max
	for _, a := range addrs {
		a &= mask
		x, c := a^prev, 0
		for _, g := range bi.groups {
			b, h := bits.OnesCount64(x&g.mask), g.width+1
			c += min(b, h-b)
			bit := uint64(1) << g.invBit
			inv = inv ^ bit&-b2u(2*b > h) | bit&-b2u(2*b == h)
		}
		total += c
		mx = max(mx, c)
		prev = a
	}
	r.transitions += int64(total)
	r.max, r.last = mx, bi.word(prev, inv)
}

// word is the bus word that sends payload a with the INV lines inv
// raised: the lines of each raised partition inverted.
func (bi *BusInvert) word(a, inv uint64) uint64 {
	w := a | inv
	for _, g := range bi.groups {
		if inv>>g.invBit&1 != 0 {
			w ^= g.mask
		}
	}
	return w
}

type biDecoder struct{ bi *BusInvert }

func (d biDecoder) Decode(word uint64, _ bool) uint64 {
	addr := uint64(0)
	for _, g := range d.bi.groups {
		payload := word & g.mask
		if word&(1<<g.invBit) != 0 {
			payload = ^payload & g.mask
		}
		addr |= payload
	}
	return addr
}

func (d biDecoder) Reset() {}
