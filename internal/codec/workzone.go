package codec

import (
	"fmt"
	"math"
	"math/bits"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("workzone", func(width int, opts Options) (Codec, error) {
		zones := opts.Zones
		if zones == 0 {
			zones = 4
		}
		zoneBits := opts.ZoneBits
		if zoneBits == 0 {
			zoneBits = 8
		}
		return NewWorkZone(width, zones, zoneBits)
	})
}

// WorkZone is a simplified working-zone code (EXTENSION — Musoll et al.,
// referenced by the post-DATE'98 literature; the paper's conclusion points
// at exactly this class of locality exploitation for data buses). The
// encoder keeps K zone registers. When the new address falls within
// 2^zoneBits of a zone register, only the zone index and the offset are
// transmitted (Gray-coded so near offsets cost few transitions) and a HIT
// line is asserted; the matched zone register is advanced to the address.
// On a miss the full address is transmitted, HIT is de-asserted, and the
// least-recently-used zone register is replaced.
//
// Redundant lines: HIT plus ceil(log2(K)) zone-index lines.
type WorkZone struct {
	width    int
	mask     uint64
	zones    int
	zoneBits int
	idxBits  int
	hitBit   uint
	idxShift uint
}

// maxZones caps the zone registers. Every encoder holds a register and
// a stamp per zone and scans them all on every entry, and a job spec
// arriving over the network names the count: the 64-line bus alone
// would let it ask for 2^31 zones, 32 GiB per encoder.
const maxZones = 1024

// NewWorkZone returns a working-zone code with the given number of zone
// registers (a power of two, at most maxZones) and zone offset width.
func NewWorkZone(width, zones, zoneBits int) (*WorkZone, error) {
	if zones < 2 || zones&(zones-1) != 0 {
		return nil, fmt.Errorf("codec workzone: zones must be a power of two >= 2, got %d", zones)
	}
	if zones > maxZones {
		return nil, fmt.Errorf("codec workzone: zones must be at most %d, got %d", maxZones, zones)
	}
	if zoneBits <= 0 || zoneBits >= width {
		return nil, fmt.Errorf("codec workzone: zoneBits %d out of range for width %d", zoneBits, width)
	}
	idxBits := bits.Len(uint(zones - 1))
	if err := checkWidth("workzone", width, 1+idxBits); err != nil {
		return nil, err
	}
	return &WorkZone{
		width:    width,
		mask:     bus.Mask(width),
		zones:    zones,
		zoneBits: zoneBits,
		idxBits:  idxBits,
		hitBit:   uint(width),
		idxShift: uint(width + 1),
	}, nil
}

// Name implements Codec.
func (w *WorkZone) Name() string { return "workzone" }

// PayloadWidth implements Codec.
func (w *WorkZone) PayloadWidth() int { return w.width }

// BusWidth implements Codec.
func (w *WorkZone) BusWidth() int { return w.width + 1 + w.idxBits }

// NewEncoder implements Codec.
func (w *WorkZone) NewEncoder() Encoder { return newWZEnd(w) }

// NewDecoder implements Codec.
func (w *WorkZone) NewDecoder() Decoder { return newWZEnd(w) }

// wzEnd holds the zone-register state, which evolves identically at both
// ends of the bus, so a single implementation serves as encoder and
// decoder.
type wzEnd struct {
	w    *WorkZone
	regs []uint64 // zone base registers
	age  []int    // LRU ages; larger = older
	prev uint64   // previous payload lines (held on hits beyond offset bits)
	// above is the registers of the last restored state when one of them
	// lies above the payload mask, else nil. regs holds such a register
	// as mask+1, which no address matches either, so that every register
	// is at most mask+1 and the batch kernel's zone test needs no guard;
	// Snapshot returns the restored register while the zone holds it.
	above []uint64
}

func newWZEnd(w *WorkZone) *wzEnd {
	e := &wzEnd{w: w, regs: make([]uint64, w.zones), age: make([]int, w.zones)}
	e.Reset()
	return e
}

func (e *wzEnd) Reset() {
	for i := range e.regs {
		e.regs[i] = 0
		e.age[i] = i
	}
	e.prev = 0
	e.above = nil
}

// wzState is the Snapshot payload: deep copies of the zone registers
// and LRU ages, so one State can seed several shard encoders without
// aliasing. Working-zone is a sweep codec — the registers accumulate
// the whole prefix's locality.
type wzState struct {
	regs []uint64
	age  []int
	prev uint64
}

// Snapshot implements StateCodec.
func (e *wzEnd) Snapshot() State {
	regs := append([]uint64(nil), e.regs...)
	for i, r := range regs {
		if r > e.w.mask {
			regs[i] = e.above[i]
		}
	}
	return wzState{regs: regs, age: append([]int(nil), e.age...), prev: e.prev}
}

// Restore implements StateCodec.
func (e *wzEnd) Restore(st State) {
	s := st.(wzState)
	copy(e.regs, s.regs)
	copy(e.age, s.age)
	e.prev = s.prev
	e.above = nil
	for i, r := range e.regs {
		if r > e.w.mask {
			if e.above == nil {
				e.above = append([]uint64(nil), e.regs...)
			}
			e.regs[i] = e.w.mask + 1
		}
	}
}

// fits implements sizedState: one register and one age per zone.
func (e *wzEnd) fits(st State) bool {
	s := st.(wzState)
	return len(s.regs) == len(e.regs) && len(s.age) == len(e.age)
}

func (e *wzEnd) touch(idx int) {
	for i := range e.age {
		e.age[i]++
	}
	e.age[idx] = 0
}

func (e *wzEnd) lru() int {
	worst, at := -1, 0
	for i, a := range e.age {
		if a > worst {
			worst, at = a, i
		}
	}
	return at
}

func (e *wzEnd) match(addr uint64) int {
	span := uint64(1) << uint(e.w.zoneBits)
	for i, r := range e.regs {
		if addr >= r && addr-r < span {
			return i
		}
	}
	return -1
}

func (e *wzEnd) Encode(s Symbol) uint64 {
	w := e.w
	addr := s.Addr & w.mask
	idx := e.match(addr)
	var out uint64
	if idx >= 0 {
		off := addr - e.regs[idx]
		// Gray-code the offset and hold the remaining payload lines at
		// their previous value to minimize toggles.
		payload := (e.prev &^ bus.Mask(w.zoneBits)) | ToGray(off)
		out = payload | 1<<w.hitBit | uint64(idx)<<w.idxShift
		e.regs[idx] = addr
		e.touch(idx)
	} else {
		v := e.lru()
		e.regs[v] = addr
		e.touch(v)
		out = addr | uint64(v)<<w.idxShift
	}
	e.prev = out & w.mask
	return out
}

// The batch kernel prices as well as encodes. It is one loop, with the
// codec's fields, the register and age slices and the previous bus word
// hoisted into locals, that writes each word when its caller passes a
// buffer (EncodeBatch: KernelScalar, VerifyFull, per-line counts, the
// state sweeps and EncodeAll) and otherwise writes none: it adds
// popcount(word ^ previous word) and the per-cycle max on the lanes it
// computes (countBatch, the Pricer's aggregate KernelAuto path), the way
// a hardware transition counter counts each line's toggles as they
// happen. The previous bus word carries the HIT and index lines as well
// as the payload lines a hit holds, so counting needs no other state.
//
// The first zone an address falls into is found without branches: each
// zone's wzIn borrow sets a bit of a 64-zone mask word, and the lowest
// set bit wins. The first four zones are tested inline, which keeps the
// mask word in a register (in a loop the compiler spilled it and its
// index on every lane), the rest of the first word two at a time (zones
// is a power of two, at least 2), and later words (zones beyond 64)
// only when it is empty. Inside the batch the age slice holds touch
// stamps, age = now - stamp in wrapping arithmetic, so a touch writes
// one stamp instead of incrementing every age, and the ages written
// back at the end are exact. Up to 16 zones the LRU victim is the low
// nibble of a recency order packed four bits a zone (wzOrder), which a
// touch updates in O(1) (wzTouch), so hit and miss select their word
// and zone without a branch. More zones, or restored ages the order
// cannot rank, take the victim from the stamps by the scalar rule
// (wzOldest), on misses only.
//
// A lane that hits zone z at offset d moves z's register to its
// address, so a following lane at that address + d hits z at offset d
// again and sends the same word, as long as z stays its first matching
// zone. Such runs are walked, not priced lane by lane: after a hit
// whose next lane steps by the hit's offset, the lanes that follow by
// the same step repeat the word (wzRunLen), short of the lowest earlier
// zone base above the hit (wzLimit, O(zones) per run). A run toggles no
// line, so counting it adds cycles only; writing, it stores the word
// again. It touches z once, at its last lane. A step equal to an offset
// never wraps: the payload is at most 62 lines wide (HIT and the index
// take the rest), so a wrapped step is at least 2^64 - 2^62, and an
// offset is below 2^61.
func (e *wzEnd) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	e.kernel(addrs, out[:len(addrs)], deltaRun{})
}

// countBatch advances the encoder over addrs exactly as EncodeBatch
// would, writing no word, and adds the words' transitions to r, counted
// from r.last, the word on the bus before addrs; it returns the counts
// with the last word in last. The Pricer prices working-zone with it.
func (e *wzEnd) countBatch(addrs []uint64, r deltaRun) deltaRun {
	return e.kernel(addrs, nil, r)
}

// kernel advances the encoder over addrs, writing each word into out
// or, when out is nil, adding the words' transitions to r from r.last,
// the word on the bus before addrs, and leaving the last word in
// r.last. It reads only r.last's HIT and index lines: its payload lines
// are the encoder's previous payload.
func (e *wzEnd) kernel(addrs, out []uint64, r deltaRun) deltaRun {
	w := e.w
	mask, span := w.mask, uint64(1)<<uint(w.zoneBits)
	keep := mask &^ bus.Mask(w.zoneBits)
	hitMask := uint64(1) << w.hitBit
	regs := e.regs
	zones := len(regs)
	stamps := e.age[:zones]
	order, top := wzOrder(stamps, len(addrs))
	for i, a := range stamps {
		stamps[i] = -a
	}
	nz := min(zones, 64)
	last := r.last&^mask | e.prev
	// The counts stay in r's memory: the loop holds more values than
	// the machine has registers, and an add to memory costs less than
	// the spill and reload of two more loop-carried values on every
	// lane.
	acc := &r
	for i := 0; i < len(addrs); i++ {
		addr := addrs[i] & mask
		hits := wzIn(addr, regs[0], span)&1 | wzIn(addr, regs[1], span)&2
		if zones >= 4 {
			hits |= wzIn(addr, regs[2], span)&4 | wzIn(addr, regs[3], span)&8
			for j := 4; j+1 < nz; j += 2 {
				hits |= (wzIn(addr, regs[j], span)&1 | wzIn(addr, regs[j+1], span)&2) << (j & 63)
			}
		}
		idx := bits.TrailingZeros64(hits)
		if zones > 64 && hits == 0 {
			idx = wzMatch(regs, addr, span)
		}
		hit := idx < zones
		victim := int(order & 15)
		if top == 0 && !hit {
			victim = wzOldest(stamps, i)
		}
		off := addr - regs[idx&(zones-1)]
		word := last&keep | ToGray(off)
		if !hit {
			idx, word = victim, addr
		}
		// The index lines sit just above the HIT line.
		word |= uint64(2*idx+int(b2u(hit))) * hitMask
		regs[idx], stamps[idx] = addr, i+1
		order = wzTouch(order, idx, top)
		if out == nil {
			c := bits.OnesCount64(word ^ last)
			acc.transitions += int64(c)
			if c > acc.max {
				acc.max = c
			}
		} else {
			out[i] = word
		}
		last = word
		// One branch, taken at a run's start: a hit whose next lane
		// steps by the hit's offset.
		next := addrs[min(i+1, len(addrs)-1)] & mask
		if b2u(hit)&b2u(next-addr == off)&b2u(i+1 < len(addrs)) == 0 {
			continue
		}
		k := wzRunLen(addrs[i+1:], addr, off, mask, wzLimit(regs[:idx], addr))
		if k == 0 {
			continue
		}
		if out != nil {
			run := out[i+1 : i+1+k]
			for j := range run {
				run[j] = word
			}
		}
		i += k
		regs[idx], stamps[idx] = addrs[i]&mask, i+1
	}
	for i, s := range stamps {
		stamps[i] = len(addrs) - s
	}
	e.prev = last & mask
	r.last = last
	return r
}

// wzOrder is the recency order of the zones whose ages are age, packed
// four bits a zone from the least recently touched up, so the LRU
// victim is the low nibble, and top, the unit of the most recent zone's
// nibble. The nibbles above the zones are zero. Equal ages, which only
// a restored state holds, rank the lower zone older, as lru picks the
// first oldest. top is 0 when the order could rank the zones otherwise
// than lru does over the next n touches: more than 16 zones, a negative
// age, or one that n more touches could overflow.
func wzOrder(age []int, n int) (order, top uint64) {
	if len(age) > 16 {
		return 0, 0
	}
	for i, a := range age {
		if a < 0 || a > math.MaxInt-n {
			return 0, 0
		}
		at := 0
		for j, b := range age {
			at += int(b2u(b > a || b == a && j < i))
		}
		order |= uint64(i) << (4 * at & 63)
	}
	return order, 1 << (4 * (len(age) - 1) & 63)
}

// wzTouch moves zone z to the top of a wzOrder order, whose top nibble
// has unit top, shifting the zones above it down one place. z's place
// is the lowest zero nibble of the order XOR z in every nibble: the
// subtraction borrows through no nibble below it, so the lowest bit of
// t is that nibble's top bit, and below masks the nibbles under it.
func wzTouch(order uint64, z int, top uint64) uint64 {
	const ones = 0x1111_1111_1111_1111
	x := order ^ uint64(z)*ones
	t := (x - ones) &^ x & (ones << 3)
	below := (t ^ (t - 1)) >> 4
	down := order >> 4
	return down ^ (order^down)&below | uint64(z)*top
}

// wzOldest is the scalar lru over touch stamps at time now: the first
// zone of the largest age now - stamp.
func wzOldest(stamps []int, now int) int {
	worst, at := -1, 0
	for j, s := range stamps {
		if a := now - s; a > worst {
			worst, at = a, j
		}
	}
	return at
}

// wzRunLen is how many leading lanes of addrs, masked, each step by
// off from the lane before, the first from addr, and stay below lim.
func wzRunLen(addrs []uint64, addr, off, mask, lim uint64) int {
	for k, a := range addrs {
		a &= mask
		if a-addr != off || a >= lim {
			return k
		}
		addr = a
	}
	return len(addrs)
}

// wzLimit is the lowest register of regs above addr, or the largest
// address when none is: an address that climbs from addr enters the
// first of those zones at its base.
func wzLimit(regs []uint64, addr uint64) uint64 {
	lim := ^uint64(0)
	for _, r := range regs {
		lim = min(lim, r|-b2u(r <= addr))
	}
	return lim
}

// wzIn is all ones if addr falls into the zone based at register r,
// else 0: the borrow of addr-r < span as a mask, which a caller ANDs
// with the zone's bit. That is exactly the scalar test addr >= r &&
// addr-r < span for an address and a register of at most mask+1, as
// every register is (Restore holds one above the payload mask as
// mask+1): the payload is at most 62 lines wide, so for addr < r,
// addr-r wraps to at least 2^64 - 2^62, above any span.
func wzIn(addr, r, span uint64) uint64 {
	_, in := bits.Sub64(addr-r, span, 0)
	return -in
}

// wzMatch is the kernel's match over the mask words after the first:
// the first zone from 64 on that addr falls into, or len(regs).
func wzMatch(regs []uint64, addr, span uint64) int {
	for base := 64; base < len(regs); base += 64 {
		var hits uint64
		for j, r := range regs[base:min(base+64, len(regs))] {
			hits |= (wzIn(addr, r, span) & 1) << (j & 63)
		}
		if hits != 0 {
			return base + bits.TrailingZeros64(hits)
		}
	}
	return len(regs)
}

func (e *wzEnd) Decode(word uint64, _ bool) uint64 {
	w := e.w
	payload := word & w.mask
	idx := int(word >> w.idxShift & bus.Mask(w.idxBits))
	var addr uint64
	if word&(1<<w.hitBit) != 0 {
		off := FromGray(payload & bus.Mask(w.zoneBits))
		addr = (e.regs[idx] + off) & w.mask
		e.regs[idx] = addr
		e.touch(idx)
	} else {
		addr = payload
		e.regs[idx] = addr
		e.touch(idx)
	}
	e.prev = payload
	return addr
}
