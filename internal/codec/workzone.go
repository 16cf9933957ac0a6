package codec

import (
	"fmt"
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
	return wzState{
		regs: append([]uint64(nil), e.regs...),
		age:  append([]int(nil), e.age...),
		prev: e.prev,
	}
}

// Restore implements StateCodec.
func (e *wzEnd) Restore(st State) {
	s := st.(wzState)
	copy(e.regs, s.regs)
	copy(e.age, s.age)
	e.prev = s.prev
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

// EncodeBatch implements BatchEncoder with the codec's fields and the
// register and age slices hoisted into locals. The first zone an
// address falls into is found without branches: each zone's wzIn
// borrow sets a bit of a 64-zone mask word, and the lowest set bit
// wins. The first word is tested inline, later words (zones beyond 64)
// only when it is empty. Inside the batch the age slice holds touch
// stamps, age = now - stamp in wrapping arithmetic, so a touch writes
// one stamp instead of incrementing every age. The LRU victim is picked
// from the recomputed ages by the scalar rule on every entry, so hit
// and miss select their word and zone without a branch. Both scans take
// the zones two at a time (zones is a power of two, at least 2). The
// ages are written back at the end of the batch.
//
// A lane that hits zone z at offset d moves z's register to its
// address, so a following lane at that address + d hits z at offset d
// again and sends the same word, as long as z stays its first matching
// zone. Such runs are walked, not priced lane by lane: a first pass
// over each runChunk lanes marks the lanes whose address step repeats
// the step before them (wzSteady), and after a hit whose next lane
// repeats it, the marked lanes that follow repeat it too, short of the
// lowest earlier zone base above the hit (wzLimit). The run writes the
// word again and touches z once, at its last lane. A step equal to an
// offset never wraps: the payload is at most 62 lines wide (HIT and the
// index take the rest), so a wrapped step is at least 2^64 - 2^62, and
// an offset is below 2^61.
func (e *wzEnd) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	w := e.w
	mask, span, zoneMask := w.mask, uint64(1)<<uint(w.zoneBits), bus.Mask(w.zoneBits)
	hitMask, idxShift := uint64(1)<<w.hitBit, w.idxShift&63
	regs, prev := e.regs, e.prev
	zones := len(regs)
	stamps := e.age[:zones]
	for i, a := range stamps {
		stamps[i] = -a
	}
	first := regs[:min(zones, 64)]
	now := 0
	out = out[:len(addrs)]
	var steady [runChunk / 64]uint64
	for base := 0; base < len(addrs); base += runChunk {
		seg := addrs[base:min(base+runChunk, len(addrs))]
		dst := out[base : base+len(seg)]
		wzSteady(seg, mask, &steady)
		for i := 0; i < len(seg); i++ {
			addr := seg[i] & mask
			var hits uint64
			for j := 0; j+1 < len(first); j += 2 {
				hits |= (wzIn(addr, first[j], mask, span) | wzIn(addr, first[j+1], mask, span)<<1) << (j & 63)
			}
			idx := bits.TrailingZeros64(hits)
			if zones > 64 && hits == 0 {
				idx = wzMatch(regs, addr, mask, span)
			}
			worst, victim := -1, 0
			for j := 0; j+1 < len(stamps); j += 2 {
				a0, a1 := now-stamps[j], now-stamps[j+1]
				if a0 > worst {
					worst, victim = a0, j
				}
				if a1 > worst {
					worst, victim = a1, j+1
				}
			}
			off := addr - regs[idx&(zones-1)]
			word := prev&^zoneMask | ToGray(off) | hitMask
			hit := idx < zones
			if !hit {
				idx, word = victim, addr
			}
			word |= uint64(idx) << idxShift
			now++
			regs[idx], stamps[idx] = addr, now
			prev = word & mask
			dst[i] = word
			// One branch, taken at a run's start: a hit whose next lane
			// steps by the hit's offset.
			next := seg[min(i+1, len(seg)-1)] & mask
			if b2u(hit)&b2u(next-addr == off)&b2u(i+1 < len(seg)) == 0 {
				continue
			}
			end := wzRunEnd(&steady, i+2, len(seg))
			if lim := wzLimit(regs[:idx], addr); seg[end-1]&mask >= lim {
				end = i + 1 + int((lim-1-addr)/off)
			}
			if k := i + 1; end-k <= 8 && k+8 <= len(dst) {
				// Most runs are short: eight stores with no loop to leave,
				// the ones past the run rewritten by the lanes they belong to.
				d := dst[k : k+8 : k+8]
				d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = word, word, word, word, word, word, word, word
			} else {
				for ; k < end; k++ {
					dst[k] = word
				}
			}
			if end > i+1 {
				now += end - i - 1
				regs[idx], stamps[idx] = seg[end-1]&mask, now
				i = end - 1
			}
		}
	}
	for i, s := range stamps {
		stamps[i] = now - s
	}
	e.prev = prev
}

// wzSteady marks the lanes of addrs, masked, whose step from the lane
// before repeats that lane's step in steady, bit i%64 of word i/64:
// a_i - a_{i-1} == a_{i-1} - a_{i-2}. Lanes 0 and 1 step from a zero
// address before the batch; a run starts after a lane, so the walk
// never reads their marks. At most runChunk lanes.
func wzSteady(addrs []uint64, mask uint64, steady *[runChunk / 64]uint64) {
	var a1, d1 uint64
	for base := 0; base < len(addrs); base += 64 {
		var m uint64
		for i, a := range addrs[base:min(base+64, len(addrs))] {
			a &= mask
			d := a - a1
			m |= b2u(d == d1) << (uint(i) & 63)
			a1, d1 = a, d
		}
		steady[base/64&(len(steady)-1)] = m
	}
}

// wzRunEnd is the first lane from lane at on that steady leaves
// unmarked, or n, the lane count.
func wzRunEnd(steady *[runChunk / 64]uint64, at, n int) int {
	for at < n {
		if free := ^steady[at/64&(len(steady)-1)] >> (uint(at) & 63); free != 0 {
			return min(at+bits.TrailingZeros64(free), n)
		}
		at += 64 - at%64
	}
	return n
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

// wzIn is 1 if addr falls into the zone based at register r, else 0:
// the borrow of (addr-r) | (r &^ mask) < span, which is exactly the
// scalar test addr >= r && addr-r < span for any register a restored
// state holds.
func wzIn(addr, r, mask, span uint64) uint64 {
	_, in := bits.Sub64(addr-r|r&^mask, span, 0)
	return in
}

// wzMatch is EncodeBatch's match over the mask words after the first:
// the first zone from 64 on that addr falls into, or len(regs).
func wzMatch(regs []uint64, addr, mask, span uint64) int {
	for base := 64; base < len(regs); base += 64 {
		var hits uint64
		for j, r := range regs[base:min(base+64, len(regs))] {
			hits |= wzIn(addr, r, mask, span) << (j & 63)
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
