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
// and, line by line, it toggles line s+j of binary (and of bus-invert)
// c_j = floor((u+k)/2^j) - floor(u/2^j) times, once for every multiple
// of 2^j it counts past, and line s+j of Gray c_j - c_(j+1) times, once
// for every odd multiple of 2^j: Table 1's per-line column.
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
// count: it is tracked to name the bus's last word, and per line to
// tell which lines a lane toggles. The stream's first entry goes
// through every member's Encode.
//
// A per-line group keeps the aggregate walk and adds its per-line state
// (deltaLines) behind a pointer that an aggregate group leaves nil. Its
// runs add their closed form per line (runLines), and its count loops
// (linesBin and the rest) count each lane as their aggregate siblings
// do and also store its toggle word, the lines the lane toggles on the
// code's bus, for a bus.LineCounter to sum line by line, the way a
// hardware transition counter keeps one counter per line. A per-line
// group of one count counts every lane that way, without the run walk
// (lanewise).

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

// deltaPricer is a delta codec shape the walk leaves alone: toggles
// stores in tw[i] the lines that addrs[i] toggles on the code's bus, the
// raw addresses following prev (masked), from the bus word last, and
// returns the word on the bus after the last of them. tw is as long as
// addrs, which is not empty.
type deltaPricer interface {
	toggles(addrs []uint64, prev, last uint64, tw []uint64) uint64
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

// DeltaSet prices one stream through one or more delta codecs of one
// payload width and stride, from each address and the one before it,
// in aggregate or per line. Not safe for concurrent use; build one per
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
	lanewise bool // count every lane lane by lane, without the run walk
	started  bool
	prev     uint64 // the previous address, masked
	seqIn    uint64 // 1 when the previous address was in sequence
	// The walk's scratch for one span: each block's in-sequence mask,
	// and the lanes left to the count loops, each address with the one
	// before it.
	seqs   [walkSpan / bus.BlockLen]uint64
	as, ps [walkSpan]uint64
	lines  *deltaLines // per-line counting; nil in aggregate
}

// deltaLines is a per-line group's state: each slot's per-line counts,
// binary's counts of the runs on line s+j at runs[j], and the toggle
// words of the lanes the count loops take.
type deltaLines struct {
	slots [nSlots]lineCounts
	runs  [bus.MaxWidth]int64
	tw    [walkSpan]uint64
}

// lineCounts is one count's per line since its members' buses last
// took them: the runs' closed forms in lines, every other lane's toggle
// word in c.
type lineCounts struct {
	lines [bus.MaxWidth]int64
	c     bus.LineCounter
}

// walkSpan is how many lanes the walk takes at a time: 16 blocks.
const walkSpan = 16 * bus.BlockLen

type deltaMember struct {
	c     Codec
	slot  int
	enc   Encoder // prices the stream's first entry; names a stateless code's last word
	b     *bus.Bus
	run   deltaRun    // slotOwn only
	lines *lineCounts // per line: the slot's counts, or the member's own
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
// codecs that pairwise share a group (sameDeltaGroup). perLine selects
// per-line counting buses.
func NewDeltaSet(codecs []Codec, perLine bool) (*DeltaSet, error) {
	s := &DeltaSet{members: make([]deltaMember, len(codecs)), seedable: true, stride: 1}
	if perLine {
		s.lines = new(deltaLines)
	}
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
		m := deltaMember{c: c, slot: slot, enc: enc, b: bus.NewAggregate(c.BusWidth())}
		if perLine {
			m.b, m.lines = bus.New(c.BusWidth()), new(lineCounts)
			if slot != slotOwn {
				m.lines = &s.lines.slots[slot]
			}
		}
		s.members[i] = m
	}
	s.shift = uint(bits.TrailingZeros64(s.stride))
	// Per line, the run walk costs about what counting a run's lanes one
	// by one costs a single count; only counts that share it gain.
	counts := 0
	for _, used := range s.used {
		counts += int(b2u(used))
	}
	s.lanewise = perLine && counts == 1
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
	if s.lines != nil {
		s.takeLines()
	}
	for k := range s.members {
		m := &s.members[k]
		var r deltaRun
		switch m.slot {
		case slotOwn:
			s.priceOwn(m, addrs, prev)
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
		var lines []int64
		if m.lines != nil {
			m.lines.c.AddTo(m.lines.lines[:])
			lines = m.lines.lines[:]
		}
		m.b.AddRun(int64(n), r.transitions, r.max, r.last, lines)
	}
	for i := range s.runs {
		s.runs[i] = deltaRun{last: s.runs[i].last}
	}
	for k := range s.members {
		if m := &s.members[k]; m.lines != nil {
			m.lines.lines = [bus.MaxWidth]int64{}
		}
	}
}

// priceOwn prices addrs, whose raw addresses follow prev (masked), on
// member m's own toggle loop (deltaPricer), a span at a time, into m.run
// and, per line, m.lines. The toggle words go to s.as, which the walk is
// done with.
func (s *DeltaSet) priceOwn(m *deltaMember, addrs []uint64, prev uint64) {
	dp := m.c.(deltaPricer)
	for len(addrs) > 0 {
		span := addrs[:min(len(addrs), walkSpan)]
		tw := s.as[:len(span)]
		m.run.last = dp.toggles(span, prev, m.run.last, tw)
		tally(tw, &m.run, m.lines)
		prev, addrs = span[len(span)-1]&s.mask, addrs[len(span):]
	}
}

// walk adds the counts of addrs, whose raw addresses follow prev
// (masked), to the slots the members read, one span of up to walkSpan
// lanes at a time. Per span it builds the blocks' in-sequence masks,
// prices the runs in closed form (runLanes, and runLines per line), and
// hands every other lane, with the address before it, to the members'
// count loops: gathered into s.as and s.ps, or read in place when no
// lane is left to the closed form.
func (s *DeltaSet) walk(addrs []uint64, prev uint64) {
	if s.used == [nSlots]bool{} {
		return
	}
	for len(addrs) > 0 {
		span := addrs[:min(len(addrs), walkSpan)]
		if !s.lanewise && s.runLanes(span, prev) {
			if s.lines != nil {
				s.runLines(span, prev)
			}
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

// runLines adds to s.lines.runs the per-line counts of the runs
// runLanes kept in s.seqs, of span whose raw addresses follow prev: a
// run of k lanes after u = p >> s toggles line s+j of binary c_j =
// (u+k)>>j - u>>j times, for j below Len64(u ^ (u+k)), where c_j
// reaches 0. Bus-invert's lines count as binary's, Gray's line s+j as
// c_j - c_(j+1) (takeLines), and offset's and INC-XOR's do not move.
func (s *DeltaSet) runLines(span []uint64, prev uint64) {
	if !s.used[slotBin] && !s.used[slotInv] && !s.used[slotGray] {
		return
	}
	runs := &s.lines.runs
	for b, base := 0, 0; base < len(span); b, base = b+1, base+bus.BlockLen {
		rest := s.seqs[b]
		for w := rest &^ (rest << 1); w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			k := uint64(bits.TrailingZeros64(^(rest >> uint(i))))
			p := prev
			if i += base; i > 0 {
				p = span[i-1]
			}
			u := p & s.mask >> s.shift
			for j, v := 0, u+k; u != v; j, u, v = j+1, u>>1, v>>1 {
				runs[j&63] += int64(v - u)
			}
		}
	}
}

// takeLines adds the runs' per-line counts (s.lines.runs, c_j on line
// s+j) to the slots that read them and empties them: binary's and
// bus-invert's c_j, Gray's c_j - c_(j+1).
func (s *DeltaSet) takeLines() {
	l := s.lines
	runs := l.runs[:bus.MaxWidth-s.shift]
	for j, c := range runs {
		if c == 0 {
			break
		}
		next := int64(0)
		if j+1 < len(runs) {
			next = runs[j+1]
		}
		line := s.shift + uint(j)
		if s.used[slotBin] {
			l.slots[slotBin].lines[line] += c
		}
		if s.used[slotInv] {
			l.slots[slotInv].lines[line] += c
		}
		if s.used[slotGray] {
			l.slots[slotGray].lines[line] += c - next
		}
	}
	l.runs = [bus.MaxWidth]int64{}
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
// addresses are as, each after the raw address ps[i], in order; a
// per-line group counts them with countLines.
func (s *DeltaSet) count(as, ps []uint64) {
	if s.lines != nil {
		s.countLines(as, ps)
		return
	}
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

// countLines is count for a per-line group: each slot a member reads
// counts the lanes as its count loop does, keeping each lane's toggle
// word in s.lines.tw, and hands the words to its LineCounter.
func (s *DeltaSet) countLines(as, ps []uint64) {
	ps = ps[:len(as)]
	tw := s.lines.tw[:len(as)]
	for slot, used := range s.used {
		if !used {
			continue
		}
		r := &s.runs[slot]
		switch slot {
		case slotBin:
			linesBin(as, ps, s.mask, r, tw)
		case slotGray:
			linesGray(as, ps, s.mask, s.low, r, tw)
		case slotInv:
			linesInv(as, ps, s.mask, s.invN, r, tw)
		case slotOff:
			linesOffset(as, ps, s.mask, r, tw)
		case slotIncXor:
			linesIncXor(as, ps, s.mask, s.stride, r, tw)
		}
		s.lines.slots[slot].c.Add(tw)
	}
}

// tally adds the toggle words tw to r's transitions and max, one
// popcount a word, and, unless lines is nil, line by line to lines.
func tally(tw []uint64, r *deltaRun, lines *lineCounts) {
	t, m := 0, r.max
	for _, w := range tw {
		c := bits.OnesCount64(w)
		t += c
		m = max(m, c)
	}
	r.transitions += int64(t)
	r.max = m
	if lines != nil {
		lines.c.Add(tw)
	}
}

// The count loops of a per-line group. Each counts its code's lanes as
// the count loop of the same name does (countBin for linesBin) and
// stores in tw[i] the lane's toggle word, the lines the lane whose raw
// address is as[i], after ps[i], toggles on the code's bus.

// linesBin counts binary: x = a ^ prev toggles.
func linesBin(as, ps []uint64, mask uint64, r *deltaRun, tw []uint64) {
	t, m := 0, r.max
	for i, a := range as {
		x := (a ^ ps[i]) & mask
		b := bits.OnesCount64(x)
		t += b
		m = max(m, b)
		tw[i] = x
	}
	r.transitions += int64(t)
	r.max = m
}

// linesGray counts Gray: x ^ (x>>1 &^ low) toggles.
func linesGray(as, ps []uint64, mask, low uint64, r *deltaRun, tw []uint64) {
	t, m := 0, r.max
	for i, a := range as {
		x := (a ^ ps[i]) & mask
		g := x ^ x>>1&^low
		c := bits.OnesCount64(g)
		t += c
		m = max(m, c)
		tw[i] = g
	}
	r.transitions += int64(t)
	r.max = m
}

// linesInv counts single-partition bus-invert: x toggles while the INV
// line keeps its polarity, and every line else where it moves.
func linesInv(as, ps []uint64, mask uint64, n int, r *deltaRun, tw []uint64) {
	h := n + 1
	flip := mask | 1<<(uint(n)&63)
	t, m, pol := 0, r.max, b2u(r.last != 0)
	for i, a := range as {
		x := (a ^ ps[i]) & mask
		b := bits.OnesCount64(x)
		c := min(b, h-b)
		t += c
		m = max(m, c)
		q := pol ^ b2u(2*b > h) | b2u(2*b == h)
		tw[i] = x ^ flip&-(pol^q)
		pol = q
	}
	r.transitions += int64(t)
	r.max, r.last = m, pol<<(uint(n)&63)
}

// linesOffset counts offset: each word, a - prev, against the word
// before it.
func linesOffset(as, ps []uint64, mask uint64, r *deltaRun, tw []uint64) {
	t, m, last := 0, r.max, r.last
	for i, a := range as {
		w := (a - ps[i]) & mask
		c := bits.OnesCount64(w ^ last)
		t += c
		m = max(m, c)
		tw[i] = w ^ last
		last = w
	}
	r.transitions += int64(t)
	r.max, r.last = m, last
}

// linesIncXor counts INC-XOR: each word, a ^ (prev + S), against the
// word before it.
func linesIncXor(as, ps []uint64, mask, stride uint64, r *deltaRun, tw []uint64) {
	t, m, last := 0, r.max, r.last
	for i, a := range as {
		w := (a ^ (ps[i] + stride)) & mask
		c := bits.OnesCount64(w ^ last)
		t += c
		m = max(m, c)
		tw[i] = w ^ last
		last = w
	}
	r.transitions += int64(t)
	r.max, r.last = m, last
}
