package codec

import (
	"fmt"
	"math/bits"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// In-sequence group pricing. The T0 family — t0, t0bi, dualt0 and
// dualt0bi — costs nothing on its payload lines while addresses run in
// sequence: the lines freeze and one redundant line carries the news.
// A SeqSet prices the family the way the bus sees it. Per block of up to
// 64 entries one branch-free pass builds the bit masks its members
// need:
//
//	seq:  lanes whose address is the previous address + S (t0, t0bi)
//	dual: SEL lanes whose address is the last instruction address + S
//	      (dualt0, dualt0bi)
//	sel:  the SEL lanes (dualt0bi)
//
// A member's payload lines hold, up to polarity, the address of the
// last lane outside its mask, so one walk over the lanes outside a mask
// also records how many payload lines each of them differs in from that
// address. Each member then prices the block from its mask and those
// distances (its encoder's priceSeq): the INC or INCV line's toggles
// come from a mask popcount, and only the lanes that break a run touch
// the payload lines. No encoded word is written; a member's counts go
// straight into its bus (bus.AddRun). The members share the masks as the
// delta group's members share its walk.

// seqNeed says which masks a member's block kernel reads.
type seqNeed uint8

const (
	needSeq  seqNeed = 1 << iota // the seq mask
	needDual                     // the dual and sel masks
)

// seqCodec is a T0-family codec: its encoders implement seqEncoder, and
// seqMasks reports its stride and the masks they read.
type seqCodec interface {
	Codec
	seqMasks() (stride uint64, need seqNeed)
}

// seqEncoder is a T0-family encoder's block kernel. priceSeq prices blk
// from its masks into r and advances the encoder exactly as Encode over
// the block's entries would. A stream's first entry goes through Encode,
// so priceSeq always has a previous address.
type seqEncoder interface {
	Encoder
	priceSeq(blk *seqBlock, r *seqRun)
}

// runMask is one mask of a block with what its members share. Bit i is
// lane i, the block's i-th entry; bits >= n are zero.
type runMask struct {
	m  uint64 // the lanes that continue a run: frozen payload, INC raised
	in uint64 // 1 when the lane before the block was in m
	// last is the address of the last lane outside m before the block,
	// lastOut after it.
	last, lastOut uint64
	// dist[i], for a lane i outside m, counts the payload lines in which
	// its address differs from the last lane outside m before it; sum
	// and most are the total and the largest of them.
	dist      [bus.BlockLen]uint8
	sum, most int
}

// seqBlock is one block of 1..64 entries as a SeqSet's members see it.
type seqBlock struct {
	a     [bus.BlockLen]uint64 // the addresses, masked to the payload width
	n     int
	valid uint64 // lanes 0..n-1
	seq   runMask
	dual  runMask // built only when a member needs it
	sel   uint64  // the SEL lanes, built with dual
	// The group's registers after the block, for the members' encoders.
	prev     uint64 // the address in lane n-1
	ref      uint64 // the last instruction address
	refValid bool
}

// seqRun is what a member counted since its bus last took the counts.
type seqRun struct {
	transitions int64
	max         int
	last        uint64               // the word on the bus after the last priced lane
	perLine     *[bus.MaxWidth]int64 // per-line counts; nil on an aggregate bus
}

// SeqSet prices one stream through two or more T0-family codecs of one
// payload width and stride, building each block's masks once for all
// of them. Not safe for concurrent use; build one per goroutine.
type SeqSet struct {
	mask, stride uint64
	need         seqNeed
	members      []seqMember
	started      bool
	prev         uint64 // the previous address, masked
	ref          uint64 // the last instruction address, masked
	refValid     bool   // whether an instruction address has passed
	selIn        uint64 // 1 when the previous entry was SEL
	// blk is a field rather than a local: the pointer escapes into the
	// priceSeq interface call, and a local would be a heap allocation
	// per block. Its masks carry their state from block to block.
	blk seqBlock
}

type seqMember struct {
	enc seqEncoder
	b   *bus.Bus
	run seqRun
}

// hasSeqKernel reports whether c is a T0-family codec, and so can join
// a SeqSet.
func hasSeqKernel(c Codec) bool {
	_, ok := c.(seqCodec)
	return ok
}

// sameSeqGroup reports whether T0-family codecs a and b can share a
// SeqSet: they must have one payload width and one stride.
func sameSeqGroup(a, b Codec) bool {
	sa, _ := a.(seqCodec).seqMasks()
	sb, _ := b.(seqCodec).seqMasks()
	return a.PayloadWidth() == b.PayloadWidth() && sa == sb
}

// NewSeqSet builds a SeqSet over codecs, which must all be T0-family
// codecs of one payload width and stride. perLine selects per-line
// counting buses.
func NewSeqSet(codecs []Codec, perLine bool) (*SeqSet, error) {
	s := &SeqSet{members: make([]seqMember, len(codecs))}
	for i, c := range codecs {
		sc, ok := c.(seqCodec)
		if !ok {
			return nil, fmt.Errorf("codec %s: no in-sequence group kernel", c.Name())
		}
		if i > 0 && !sameSeqGroup(codecs[0], c) {
			return nil, fmt.Errorf("codec %s: width or stride differs from the in-sequence group's %s", c.Name(), codecs[0].Name())
		}
		var need seqNeed
		s.stride, need = sc.seqMasks()
		s.mask = bus.Mask(c.PayloadWidth())
		s.need |= need
		m := &s.members[i]
		m.enc = c.NewEncoder().(seqEncoder)
		if perLine {
			m.b = bus.New(c.BusWidth())
			m.run.perLine = new([bus.MaxWidth]int64)
		} else {
			m.b = bus.NewAggregate(c.BusWidth())
		}
	}
	return s, nil
}

// Bus returns codec i's counting bus.
func (s *SeqSet) Bus(i int) *bus.Bus { return s.members[i].b }

// Consume prices the next entries of the stream, given as address and
// kind columns (SEL is kinds[i] == trace.Instr), through every member,
// and hands each member's counts to its bus. Calls may chunk the stream
// arbitrarily.
func (s *SeqSet) Consume(addrs []uint64, kinds []trace.Kind) {
	n := len(addrs)
	if n == 0 {
		return
	}
	kinds = kinds[:n]
	if !s.started {
		s.start(addrs[0], kinds[0])
		addrs, kinds = addrs[1:], kinds[1:]
	}
	for base := 0; base < len(addrs); base += bus.BlockLen {
		end := min(base+bus.BlockLen, len(addrs))
		s.consumeBlock(addrs[base:end], kinds[base:end])
	}
	for k := range s.members {
		m := &s.members[k]
		var perLine []int64
		if m.run.perLine != nil {
			perLine = m.run.perLine[:]
		}
		m.b.AddRun(int64(n), m.run.transitions, m.run.max, m.run.last, perLine)
		m.run = seqRun{last: m.run.last, perLine: m.run.perLine}
		if perLine != nil {
			clear(perLine)
		}
	}
}

// start prices the stream's first entry through every member's Encode:
// its word is the bus's first and costs nothing. The entry is in no
// mask, so it is every mask's last lane outside it.
func (s *SeqSet) start(addr uint64, kind trace.Kind) {
	sym := Symbol{Addr: addr, Sel: kind == trace.Instr}
	for k := range s.members {
		s.members[k].run.last = s.members[k].enc.Encode(sym)
	}
	s.prev = addr & s.mask
	s.blk.seq.lastOut, s.blk.dual.lastOut = s.prev, s.prev
	if sym.Sel {
		s.ref, s.refValid, s.selIn = s.prev, true, 1
	}
	s.started = true
}

// consumeBlock builds the masks of one block of 1..64 entries and has
// every member price it.
func (s *SeqSet) consumeBlock(addrs []uint64, kinds []trace.Kind) {
	b := &s.blk
	last := uint(b.n-1) & 63 // the previous block's last lane
	b.n, b.valid = len(addrs), bus.Mask(len(addrs))
	seq := seqLanes(&b.a, addrs, s.prev, s.mask, s.stride)
	if s.need&needSeq != 0 {
		b.seq.advance(b, seq, last)
	}
	if s.need&needDual != 0 {
		b.sel = selLanes(kinds)
		b.dual.advance(b, s.dualLanes(b, seq), last)
		s.selIn = b.sel >> (uint(b.n-1) & 63) & 1
	}
	s.prev = b.a[(b.n-1)&63]
	b.prev, b.ref, b.refValid = s.prev, s.ref, s.refValid
	for k := range s.members {
		s.members[k].enc.priceSeq(b, &s.members[k].run)
	}
}

// advance makes v block b's mask m, carrying its state over from the
// block before, whose last lane was lane last, and records the
// distances of the lanes outside m.
func (v *runMask) advance(b *seqBlock, m uint64, last uint) {
	v.in, v.m, v.last = v.m>>last&1, m, v.lastOut
	out, sum, most := v.last, 0, 0
	for w := b.valid &^ m; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w) & 63
		d := bits.OnesCount64(out ^ b.a[i])
		v.dist[i] = uint8(d)
		sum += d
		most = max(most, d)
		out = b.a[i]
	}
	v.lastOut, v.sum, v.most = out, sum, most
}

// seqLanes stores the block's addresses, masked, in a and returns the
// seq mask; prev is the address before lane 0. The masks fill from the
// top, one constant shift per lane.
func seqLanes(a *[bus.BlockLen]uint64, addrs []uint64, prev, mask, stride uint64) uint64 {
	var seq uint64
	for i, x := range addrs {
		x &= mask
		a[i&63] = x
		seq = seq>>1 | b2u(x == (prev+stride)&mask)<<63
		prev = x
	}
	return seq >> ((bus.BlockLen - len(addrs)) & 63)
}

// seqMask returns the seq mask of a block of 1..64 addresses as
// seqLanes does, reading them in place: prev is the address before
// lane 0.
func seqMask(addrs []uint64, prev, mask, stride uint64) uint64 {
	var seq uint64
	for _, x := range addrs {
		x &= mask
		seq = seq>>1 | b2u(x == (prev+stride)&mask)<<63
		prev = x
	}
	return seq >> ((bus.BlockLen - len(addrs)) & 63)
}

// selLanes returns the SEL lanes of kinds (trace.Instr is 0), eight at
// a time: a byte is zero exactly when its low seven bits plus 0x7f, ORed
// with the byte, leave its top bit clear, and the multiply gathers the
// eight top bits into one byte.
func selLanes(kinds []trace.Kind) uint64 {
	const low7, top = 0x7f7f_7f7f_7f7f_7f7f, 0x8080_8080_8080_8080
	var sel uint64
	i := 0
	for ; i+8 <= len(kinds); i += 8 {
		k := kinds[i : i+8 : i+8]
		x := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24 |
			uint64(k[4])<<32 | uint64(k[5])<<40 | uint64(k[6])<<48 | uint64(k[7])<<56
		zero := ^(x&low7 + low7 | x) & top
		sel |= zero >> 7 * 0x0102_0408_1020_4080 >> 56 << (uint(i) & 63)
	}
	for ; i < len(kinds); i++ {
		sel |= b2u(kinds[i] == trace.Instr) << (uint(i) & 63)
	}
	return sel
}

// dualLanes returns the block's dual mask from its seq and sel masks
// and advances the reference register past the block. An instruction
// whose previous lane is an instruction is dual exactly when it is in
// seq; only an instruction after a data lane looks its reference up,
// the last instruction lane before it or else the register.
func (s *SeqSet) dualLanes(b *seqBlock, seq uint64) uint64 {
	after := b.sel<<1 | s.selIn
	dual := b.sel & seq & after
	for w := b.sel &^ after; w != 0; w &= w - 1 {
		i := uint(bits.TrailingZeros64(w)) & 63
		ref, ok := s.ref, s.refValid
		if before := b.sel & (1<<i - 1); before != 0 {
			ref, ok = b.a[63-bits.LeadingZeros64(before)], true
		}
		if ok && b.a[i] == (ref+s.stride)&s.mask {
			dual |= 1 << i
		}
	}
	if b.sel != 0 {
		s.ref, s.refValid = b.a[63-bits.LeadingZeros64(b.sel)], true
	}
	return dual
}

// b2u is 1 for true and 0 for false.
func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// priceFrozen prices one block of a code that freezes its payload lines
// and raises INC (line inc) on the lanes of v.m, and sends the address
// plain with INC low on every other lane: T0 over the seq mask, dual T0
// over the dual mask. Its payload lines always hold v's last lane
// outside the mask. INC toggles wherever the mask changes, and only the
// lanes outside it touch the payload lines, v.dist of them, v.sum in
// all. A cycle counts its distance plus its INC toggle, so the lanes
// are walked for the max per cycle only when the block's largest
// distance could raise it.
func priceFrozen(b *seqBlock, v *runMask, inc uint, r *seqRun) {
	m := v.m
	toggles := (m ^ (m<<1 | v.in)) & b.valid
	r.transitions += int64(v.sum + bits.OnesCount64(toggles))
	if toggles&m != 0 {
		r.max = max(r.max, 1)
	}
	if v.most >= r.max {
		mx := r.max
		for w := b.valid &^ m; w != 0; w &= w - 1 {
			i := uint(bits.TrailingZeros64(w)) & 63
			mx = max(mx, int(v.dist[i])+int(toggles>>i&1))
		}
		r.max = mx
	}
	if pl := r.perLine; pl != nil {
		lines := v.last
		for w := b.valid &^ m; w != 0; w &= w - 1 {
			a := b.a[bits.TrailingZeros64(w)&63]
			for d := lines ^ a; d != 0; d &= d - 1 {
				pl[bits.TrailingZeros64(d)&63]++
			}
			lines = a
		}
		pl[inc&63] += int64(bits.OnesCount64(toggles))
	}
	r.last = v.lastOut | (m>>(uint(b.n-1)&63)&1)<<(inc&63)
}

// invertWalk returns the lanes a bus-inverting member of the family
// walks over mask v: the lanes outside it, and the first lane of each
// run of it. Every later lane of a run repeats the word before it at no
// cost.
func invertWalk(b *seqBlock, v *runMask) uint64 {
	return b.valid&^v.m | v.m&^(v.m<<1|v.in)
}

// perLineInverting adds the per-line counts of a bus-inverting member's
// block over mask v, walking invertWalk's lanes with the words
// themselves: word is the word on the bus before the block, mask the
// payload mask; a lane of v.m keeps the payload and raises incBit alone,
// any other sends its address, or the complement with invBit alone when
// it is a lane of mayInv and more than thr/2 lines would toggle.
func perLineInverting(b *seqBlock, v *runMask, mayInv, word, mask, incBit, invBit uint64, thr int, pl *[bus.MaxWidth]int64) {
	for w := invertWalk(b, v); w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w) & 63
		a := b.a[i]
		next := word&mask | incBit
		if v.m&(1<<i) == 0 {
			next = a
			if mayInv&(1<<i) != 0 && 2*bits.OnesCount64(word^a) > thr {
				next = a ^ mask | invBit
			}
		}
		for d := word ^ next; d != 0; d &= d - 1 {
			pl[bits.TrailingZeros64(d)&63]++
		}
		word = next
	}
}
