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
// does, from consecutive addresses, and never writes an encoded word;
// each member's counts go straight into its bus (bus.AddRun).
//
// A lane is in sequence when its address is the one before it plus S
// (modulo 2^P, the payload), and a run of such lanes has a closed form:
// the one behind Table 1's sequential rows (analytic.BinarySequential
// averages it over all 2^N addresses, GraySequential is its Gray row).
// A run of k lanes after address p, with u = p >> s, costs
//
//	binary:     2k - popcount(u+k) + popcount(u), and at most
//	            Len64(u ^ (u+k)) lines on one cycle: lane j toggles the
//	            trailing ones of u+j and the zero above them
//	gray:       k, one line per lane
//	offset:     nothing after the run's first lane, whose word S repeats
//	incxor:     nothing after the run's first lane, whose word 0 repeats
//	businvert:  binary's count, its INV line unmoved, while
//	            2*Len64(u ^ (u+k)) < N+1
//
// The walk takes the address column 16 blocks of 64 lanes at a time. It
// builds each block's in-sequence mask (seqMask), prices in closed form
// the lanes in sequence after a lane in sequence (runLanes), and hands
// every other lane, those outside runs and each run's first, with the
// address before it to one count loop per count the members read
// (countBin, which untrained Beach shares, countGray, countInv,
// countOffset, countIncXor). Only those lanes pay a popcount: about one
// lane in six on an instruction stream in sequence 90% of the time, and
// on a span without runs the count loops read the column in place. A
// run that wraps the payload's top, or whose carry reaches half of
// bus-invert's partition, is counted lane by lane with them. Each count
// loop is a function of its own with few live values: under GOAMD64=v1
// bits.OnesCount64 carries a call fallback, and a loop that keeps more
// values live than there are registers spills its accumulators around
// it on every lane. Partitioned bus-invert and trained Beach take a loop
// of their own (deltaPricer). Bus-invert's INV polarity decides no
// count: it is tracked only to name the bus's last word. The stream's
// first entry goes through every member's Encode.

// deltaCodec is a codec a DeltaSet can price: its transitions on a cycle
// follow from the cycle's address and the one before it.
type deltaCodec interface {
	Codec
	// deltaStride is the in-sequence stride the code predicts with, 0
	// for a code without one.
	deltaStride() uint64
	// deltaSlot is the count of the walk the code reads, or slotOwn for
	// a shape it leaves alone, which implements deltaPricer.
	deltaSlot() int
}

// deltaPricer is a delta codec shape the walk leaves alone:
// priceDelta adds the transitions of addrs, whose raw addresses follow
// prev (masked), to r and leaves in r.last the word on the bus after the
// last of them. r.last holds the word before addrs on entry; addrs may
// be empty.
type deltaPricer interface {
	priceDelta(addrs []uint64, prev uint64, r *deltaRun)
}

// deltaRun is what a member, or working-zone's counting kernel, counted
// since its bus last took the counts.
type deltaRun struct {
	transitions int64
	max         int
	last        uint64 // the word on the bus after the last priced lane
}

// The counts the walk computes, each shared by every member that reads
// it.
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
	shift    uint // s, the stride's shift
	invN     int  // the bus-invert partition's line count N
	used     [nSlots]bool
	runs     [nSlots]deltaRun
	members  []deltaMember
	seedable bool // every member is a Seeder codec
	started  bool
	prev     uint64 // the previous address, masked
	seqIn    uint64 // 1 when the previous address was in sequence
	// The walk's scratch for one span: each block's in-sequence mask,
	// and the lanes left to the count loops, each address with the one
	// before it.
	seqs   [walkSpan / bus.BlockLen]uint64
	as, ps [walkSpan]uint64
}

// walkSpan is how many lanes the walk takes at a time: 16 blocks.
const walkSpan = 16 * bus.BlockLen

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
	s.shift = uint(bits.TrailingZeros64(s.stride))
	return s, nil
}

// Bus returns codec i's counting bus.
func (s *DeltaSet) Bus(i int) *bus.Bus { return s.members[i].b }

// Prime joins the stream mid-way, for Pricer.Seed: prevRaw is the raw
// address of the entry just before the next Consume call, and words[i]
// the word codec i's bus carries at that point.
func (s *DeltaSet) Prime(prevRaw uint64, words []uint64) {
	s.prev, s.started, s.seqIn = prevRaw&s.mask, true, 0
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
	s.walk(addrs, prev)
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

// walk adds the counts of addrs, whose raw addresses follow prev
// (masked), to the slots the members read, one span of up to walkSpan
// lanes at a time. Per span it builds the blocks' in-sequence masks,
// prices the runs in closed form (runLanes), and hands every other lane,
// with the address before it, to the members' count loops: gathered
// into s.as and s.ps, or read in place when no lane is left to the
// closed form.
func (s *DeltaSet) walk(addrs []uint64, prev uint64) {
	if s.used == [nSlots]bool{} {
		return
	}
	for len(addrs) > 0 {
		span := addrs[:min(len(addrs), walkSpan)]
		if s.runLanes(span, prev) {
			n := s.gather(span, prev)
			s.count(s.as[:n], s.ps[:n])
		} else {
			s.as[0], s.ps[0] = span[0], prev
			s.count(s.as[:1], s.ps[:1])
			s.count(span[1:], span[:len(span)-1])
		}
		prev, addrs = span[len(span)-1]&s.mask, addrs[len(span):]
	}
}

// seqMasks fills s.seqs with the in-sequence masks of span's blocks,
// whose raw addresses follow prev.
func (s *DeltaSet) seqMasks(span []uint64, prev uint64) {
	for b, base := 0, 0; base < len(span); b, base = b+1, base+bus.BlockLen {
		blk := span[base:min(base+bus.BlockLen, len(span))]
		s.seqs[b] = seqMask(blk, prev, s.mask, s.stride)
		prev = blk[len(blk)-1] & s.mask
	}
}

// runLanes builds the in-sequence masks of span's blocks (seqMasks),
// prices in closed form the lanes that are in sequence after a lane in
// sequence, and leaves them in s.seqs in place of each block's mask; it
// reports whether there are any. On such a lane offset's and INC-XOR's
// words, S and 0, repeat the word before them at no cost. For the XOR
// slots, a run of k of them after address p, cut at the blocks' edges,
// u = p >> s, costs Gray k and binary 2k - popcount(u+k) + popcount(u),
// at most Len64(u ^ (u+k)) on one cycle; bus-invert costs as much, and
// its INV line does not move, while 2*Len64(u ^ (u+k)) < N+1. A run
// that wraps the payload's top, or that carries too far for bus-invert,
// leaves the mask, and its lanes are counted one by one with the rest;
// when S >= 2^P, where the mask marks repeats, top is 0 and every run
// wraps. Whether the lane before span was in sequence is s.seqIn, carried from
// call to call.
func (s *DeltaSet) runLanes(span []uint64, prev uint64) bool {
	s.seqMasks(span, prev)
	mask, sh, top := s.mask, s.shift, s.mask>>s.shift
	most := bus.MaxWidth // the farthest carry a run keeps: any, without bus-invert
	if s.used[slotInv] {
		most = s.invN / 2
	}
	rb, rg, ri := &s.runs[slotBin], &s.runs[slotGray], &s.runs[slotInv]
	tb, tg := 0, 0
	mb, mg, mi := rb.max, rg.max, ri.max
	in, kept := s.seqIn, uint64(0)
	for b, base := 0, 0; base < len(span); b, base = b+1, base+bus.BlockLen {
		seq := s.seqs[b]
		rest := seq & (seq<<1 | in)
		in = seq >> (uint(min(len(span)-base, bus.BlockLen)-1) & 63) & 1
		for w := rest &^ (rest << 1); w != 0; w &= w - 1 {
			l := bits.TrailingZeros64(w)
			k := bits.TrailingZeros64(^(rest >> uint(l)))
			p := prev
			if i := base + l; i > 0 {
				p = span[i-1]
			}
			u := p & mask >> sh
			v := u + uint64(k)
			d := bits.Len64(u ^ v)
			if uint64(k) > top-u || d > most {
				rest &^= (uint64(1)<<uint(k) - 1) << uint(l)
				continue
			}
			tb += 2*k - bits.OnesCount64(v) + bits.OnesCount64(u)
			mb = max(mb, d)
			mi = max(mi, d)
		}
		s.seqs[b] = rest
		if rest != 0 {
			kept |= rest
			tg += bits.OnesCount64(rest)
			mg = max(mg, 1)
		}
	}
	s.seqIn = in
	// Bus-invert costs binary's count on every run it keeps.
	rb.transitions += int64(tb)
	rg.transitions += int64(tg)
	ri.transitions += int64(tb)
	rb.max, rg.max, ri.max = mb, mg, mi
	return kept != 0
}

// gather stores the raw address of each lane of span that runLanes left,
// and the address before it, in s.as and s.ps, in lane order, and
// returns how many it stored.
func (s *DeltaSet) gather(span []uint64, prev uint64) int {
	n := 0
	for b, base := 0, 0; base < len(span); b, base = b+1, base+bus.BlockLen {
		w := bus.Mask(min(len(span)-base, bus.BlockLen)) &^ s.seqs[b]
		if base == 0 && w&1 != 0 {
			s.as[0], s.ps[0], n = span[0], prev, 1
			w &^= 1
		}
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			s.as[n], s.ps[n] = span[i], span[i-1]
			n++
		}
	}
	return n
}

// count has every slot a member reads count the lanes whose raw
// addresses are as, each after the raw address ps[i], in order.
func (s *DeltaSet) count(as, ps []uint64) {
	ps = ps[:len(as)]
	if s.used[slotBin] {
		countBin(as, ps, s.mask, &s.runs[slotBin])
	}
	if s.used[slotGray] {
		countGray(as, ps, s.mask, s.low, &s.runs[slotGray])
	}
	if s.used[slotInv] {
		countInv(as, ps, s.mask, s.invN, &s.runs[slotInv])
	}
	if s.used[slotOff] {
		countOffset(as, ps, s.mask, &s.runs[slotOff])
	}
	if s.used[slotIncXor] {
		countIncXor(as, ps, s.mask, s.stride, &s.runs[slotIncXor])
	}
}

// The count loops. Each adds its code's count of the lanes whose raw
// addresses are as, each after ps[i], to r; the slices are equally long.

// countBin counts binary: popcount(x), x = a ^ prev.
func countBin(as, ps []uint64, mask uint64, r *deltaRun) {
	t, m := 0, r.max
	for i, a := range as {
		b := bits.OnesCount64((a ^ ps[i]) & mask)
		t += b
		m = max(m, b)
	}
	r.transitions += int64(t)
	r.max = m
}

// countGray counts Gray: popcount(x ^ (x>>1 &^ low)), low = S-1.
func countGray(as, ps []uint64, mask, low uint64, r *deltaRun) {
	t, m := 0, r.max
	for i, a := range as {
		x := (a ^ ps[i]) & mask
		g := bits.OnesCount64(x ^ x>>1&^low)
		t += g
		m = max(m, g)
	}
	r.transitions += int64(t)
	r.max = m
}

// countInv counts single-partition bus-invert: with b of the n lines
// toggling, min(b, n+1-b). Its INV line, in r.last, flips where
// 2b > n+1 and rises where 2b = n+1 (the tie an odd partition breaks
// towards inversion from either polarity); a lane runLanes prices never
// moves it.
func countInv(as, ps []uint64, mask uint64, n int, r *deltaRun) {
	h := n + 1
	t, m, pol := 0, r.max, b2u(r.last != 0)
	for i, a := range as {
		b := bits.OnesCount64((a ^ ps[i]) & mask)
		c := min(b, h-b)
		t += c
		m = max(m, c)
		pol = pol ^ b2u(2*b > h) | b2u(2*b == h)
	}
	r.transitions += int64(t)
	r.max, r.last = m, pol<<(uint(n)&63)
}

// countOffset counts offset: each word, a - prev, against the word
// before it, r.last for the first; it leaves the last word in r.last.
func countOffset(as, ps []uint64, mask uint64, r *deltaRun) {
	t, m, last := 0, r.max, r.last
	for i, a := range as {
		w := (a - ps[i]) & mask
		c := bits.OnesCount64(w ^ last)
		t += c
		m = max(m, c)
		last = w
	}
	r.transitions += int64(t)
	r.max, r.last = m, last
}

// countIncXor counts INC-XOR: each word, a ^ (prev + S), against the
// word before it, r.last for the first; it leaves the last word in
// r.last.
func countIncXor(as, ps []uint64, mask, stride uint64, r *deltaRun) {
	t, m, last := 0, r.max, r.last
	for i, a := range as {
		w := (a ^ (ps[i] + stride)) & mask
		c := bits.OnesCount64(w ^ last)
		t += c
		m = max(m, c)
		last = w
	}
	r.transitions += int64(t)
	r.max, r.last = m, last
}
