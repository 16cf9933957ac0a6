package codec

import (
	"fmt"
	"math/bits"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// Delta group pricing. Six codes cost, on every cycle, a function of the
// address and the address before it alone. With x = a XOR prev (both
// masked to the payload width) and S = 2^s the stride:
//
//	binary:     popcount(x)
//	gray:       popcount(x ^ (x>>1 &^ (S-1)))   ToGray is linear over XOR
//	offset:     popcount(w ^ w_prev), w = a - prev
//	incxor:     popcount(w ^ w_prev), w = a ^ (prev + S)
//	businvert:  per partition of N lines, b = popcount(x & lines):
//	            min(b, N+1-b), whichever polarity the previous word had
//	beach:      popcount(T(x))                  T, the XOR network, is linear
//
// A DeltaSet prices such codecs the way a hardware transition counter
// does, from the XOR of consecutive words, and never writes an encoded
// word; each member's counts go straight into its bus (bus.AddRun). Two
// fused passes walk the chunk's address column with the previous
// address in hand, computing only the counts the members need: the XOR
// pass for binary, Gray, single-partition bus-invert and untrained Beach
// (the identity), and the word pass for offset and INC-XOR, the two
// codes that carry their previous word. Partitioned bus-invert and
// trained Beach take a loop of their own (deltaPricer). Bus-invert's
// INV polarity decides no count: it is tracked only to name the bus's
// last word. The stream's first entry goes through every member's
// Encode.

// deltaCodec is a codec a DeltaSet can price: its transitions on a cycle
// follow from the cycle's address and the one before it.
type deltaCodec interface {
	Codec
	// deltaStride is the in-sequence stride the code predicts with, 0
	// for a code without one.
	deltaStride() uint64
	// deltaSlot is the count of the fused passes the code reads, or
	// slotOwn for a shape they leave alone, which implements
	// deltaPricer.
	deltaSlot() int
}

// deltaPricer is a delta codec shape the fused passes leave alone:
// priceDelta adds the transitions of addrs, whose raw addresses follow
// prev (masked), to r and leaves in r.last the word on the bus after the
// last of them. r.last holds the word before addrs on entry; addrs may
// be empty.
type deltaPricer interface {
	priceDelta(addrs []uint64, prev uint64, r *deltaRun)
}

// deltaRun is what a member counted since its bus last took the counts.
type deltaRun struct {
	transitions int64
	max         int
	last        uint64 // the word on the bus after the last priced lane
}

// The counts the fused passes compute, each shared by every member that
// reads it.
const (
	slotBin    = iota // binary and untrained Beach: popcount(x)
	slotGray          // Gray
	slotInv           // single-partition bus-invert; last holds the INV line
	slotOff           // offset; last holds the previous word
	slotIncXor        // INC-XOR; last holds the previous word
	nSlots
	slotOwn = -1 // the member's own loop (deltaPricer)
)

// DeltaSet prices one stream through two or more delta codecs of one
// payload width and stride, from each address and the one before it.
// It counts in aggregate only: per-line counts need the words, which
// the plane group builds. Not safe for concurrent use; build one per
// goroutine.
type DeltaSet struct {
	mask     uint64
	low      uint64 // Gray's lines below the stride shift, S-1
	stride   uint64
	invN     int // the bus-invert partition's line count N
	used     [nSlots]bool
	runs     [nSlots]deltaRun
	members  []deltaMember
	seedable bool // every member is a Seeder codec
	started  bool
	prev     uint64 // the previous address, masked
}

type deltaMember struct {
	c    Codec
	slot int
	enc  Encoder // prices the stream's first entry; names a stateless code's last word
	b    *bus.Bus
	run  deltaRun // slotOwn only
}

// hasDeltaKernel reports whether c can join a DeltaSet.
func hasDeltaKernel(c Codec) bool {
	_, ok := c.(deltaCodec)
	return ok
}

// sameDeltaGroup reports whether delta codecs a and b can share a
// DeltaSet: one payload width, and one stride where both have one.
func sameDeltaGroup(a, b Codec) bool {
	sa, sb := a.(deltaCodec).deltaStride(), b.(deltaCodec).deltaStride()
	return a.PayloadWidth() == b.PayloadWidth() && (sa == sb || sa == 0 || sb == 0)
}

// NewDeltaSet builds a DeltaSet over codecs, which must all be delta
// codecs that pairwise share a group (sameDeltaGroup).
func NewDeltaSet(codecs []Codec) (*DeltaSet, error) {
	s := &DeltaSet{members: make([]deltaMember, len(codecs)), seedable: true, stride: 1}
	for i, c := range codecs {
		dc, ok := c.(deltaCodec)
		if !ok {
			return nil, fmt.Errorf("codec %s: no delta group kernel", c.Name())
		}
		for _, o := range codecs[:i] {
			if !sameDeltaGroup(o, c) {
				return nil, fmt.Errorf("codec %s: width or stride differs from the delta group's %s", c.Name(), o.Name())
			}
		}
		if st := dc.deltaStride(); st != 0 {
			s.stride = st
		}
		slot := dc.deltaSlot()
		switch slot {
		case slotGray:
			s.low = dc.deltaStride() - 1
		case slotInv:
			s.invN = c.PayloadWidth()
		}
		if slot != slotOwn {
			s.used[slot] = true
		} else if _, ok := c.(deltaPricer); !ok {
			return nil, fmt.Errorf("codec %s: no delta group kernel", c.Name())
		}
		enc := c.NewEncoder()
		if _, ok := enc.(Seeder); !ok {
			s.seedable = false
		}
		s.mask = bus.Mask(c.PayloadWidth())
		s.members[i] = deltaMember{c: c, slot: slot, enc: enc, b: bus.NewAggregate(c.BusWidth())}
	}
	return s, nil
}

// Bus returns codec i's counting bus.
func (s *DeltaSet) Bus(i int) *bus.Bus { return s.members[i].b }

// Prime joins the stream mid-way, for Pricer.Seed: prevRaw is the raw
// address of the entry just before the next Consume call, and words[i]
// the word codec i's bus carries at that point.
func (s *DeltaSet) Prime(prevRaw uint64, words []uint64) {
	s.prev, s.started = prevRaw&s.mask, true
	for i := range s.members {
		s.members[i].b.Prime(words[i])
		s.setLast(&s.members[i], words[i])
	}
}

// setLast makes word the last word on member m's bus, in the state its
// counts carry: offset's and INC-XOR's previous word, bus-invert's INV
// line. The stateless codes' slots carry nothing.
func (s *DeltaSet) setLast(m *deltaMember, word uint64) {
	switch m.slot {
	case slotOwn:
		m.run.last = word
	case slotInv:
		s.runs[slotInv].last = word &^ s.mask
	default:
		s.runs[m.slot].last = word
	}
}

// Consume prices the next entries of the stream, given as address and
// kind columns, through every member, and hands each member's counts to
// its bus. Only the stream's first entry reads its kind. Calls may chunk
// the stream arbitrarily.
func (s *DeltaSet) Consume(addrs []uint64, kinds []trace.Kind) {
	n := len(addrs)
	if n == 0 {
		return
	}
	if !s.started {
		sym := Symbol{Addr: addrs[0], Sel: kinds[0] == trace.Instr}
		for k := range s.members {
			s.setLast(&s.members[k], s.members[k].enc.Encode(sym))
		}
		s.prev, s.started = addrs[0]&s.mask, true
		addrs = addrs[1:]
	}
	prev := s.prev
	if s.used[slotBin] || s.used[slotGray] || s.used[slotInv] {
		s.xorPass(addrs, prev)
	}
	if s.used[slotOff] || s.used[slotIncXor] {
		s.wordPass(addrs, prev)
	}
	if len(addrs) > 0 {
		s.prev = addrs[len(addrs)-1] & s.mask
	}
	for k := range s.members {
		m := &s.members[k]
		var r deltaRun
		switch m.slot {
		case slotOwn:
			m.c.(deltaPricer).priceDelta(addrs, prev, &m.run)
			r, m.run = m.run, deltaRun{last: m.run.last}
		case slotInv:
			r = s.runs[slotInv]
			r.last = m.c.(*BusInvert).word(s.prev, r.last)
		case slotOff, slotIncXor:
			r = s.runs[m.slot]
		default:
			// binary, Gray, Beach: stateless, the word of the last address
			r = s.runs[m.slot]
			r.last = m.enc.Encode(Symbol{Addr: s.prev})
		}
		m.b.AddRun(int64(n), r.transitions, r.max, r.last, nil)
	}
	for i := range s.runs {
		s.runs[i] = deltaRun{last: s.runs[i].last}
	}
}

// xorPass adds the counts that follow from x = a ^ prev alone to their
// slots: binary's popcount(x), Gray's, and single-partition bus-invert's
// min(b, N+1-b) with its INV line, which flips where 2b > N+1 and rises
// where 2b = N+1 (the tie an odd partition breaks towards inversion from
// either polarity).
func (s *DeltaSet) xorPass(addrs []uint64, prev uint64) {
	mask, low, h := s.mask, s.low, s.invN+1
	rb, rg, ri := &s.runs[slotBin], &s.runs[slotGray], &s.runs[slotInv]
	inv := s.used[slotInv]
	tb, tg, ti := 0, 0, 0
	mb, mg, mi := rb.max, rg.max, ri.max
	pol := b2u(ri.last != 0)
	for _, a := range addrs {
		a &= mask
		x := a ^ prev
		prev = a
		b := bits.OnesCount64(x)
		g := bits.OnesCount64(x ^ x>>1&^low)
		tb += b
		tg += g
		mb = max(mb, b)
		mg = max(mg, g)
		if inv {
			i := min(b, h-b)
			ti += i
			mi = max(mi, i)
			pol = pol ^ b2u(2*b > h) | b2u(2*b == h)
		}
	}
	rb.transitions += int64(tb)
	rg.transitions += int64(tg)
	ri.transitions += int64(ti)
	rb.max, rg.max, ri.max = mb, mg, mi
	ri.last = pol << (uint(s.invN) & 63)
}

// wordPass adds offset's and INC-XOR's counts to their slots: each word
// against the word before it, a - prev and a ^ (prev + S).
func (s *DeltaSet) wordPass(addrs []uint64, prev uint64) {
	mask, stride := s.mask, s.stride
	ro, rx := &s.runs[slotOff], &s.runs[slotIncXor]
	to, tx := 0, 0
	mo, mx := ro.max, rx.max
	lo, lx := ro.last, rx.last
	for _, a := range addrs {
		a &= mask
		w, v := (a-prev)&mask, a^(prev+stride)&mask
		o, x := bits.OnesCount64(w^lo), bits.OnesCount64(v^lx)
		to += o
		tx += x
		mo = max(mo, o)
		mx = max(mx, x)
		lo, lx, prev = w, v, a
	}
	ro.transitions += int64(to)
	rx.transitions += int64(tx)
	ro.max, rx.max = mo, mx
	ro.last, rx.last = lo, lx
}
