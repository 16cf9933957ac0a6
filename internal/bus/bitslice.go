package bus

import "math/bits"

// Bit-sliced (word-parallel) transition counting. The scalar Accumulate
// prices one bus word per iteration: XOR, popcount, and — when per-line
// counts are tracked — a TrailingZeros64 scan over every set bit of the
// diff. Transposing a block of 64 words into bit-planes turns that
// inside out: plane b holds bit b of all 64 words packed into one
// machine word (lane i = word i), so the transitions of line b across
// the whole block are one XOR against the lane-shifted plane and one
// popcount — 64 entries per instruction, and the per-line scan
// disappears entirely. Per-cycle transition counts (for MaxPerCycle)
// are recovered without transposing back by summing the diff planes in
// bit-sliced vertical counters. See DESIGN.md "Bit-sliced counting" for
// the layout and the block-boundary handling; parity with the scalar
// kernel is pinned bit-for-bit by bitslice_test.go and
// FuzzTransposeRoundTrip.

// BlockLen is the number of entries per bit-plane block: one lane per
// bit of a machine word.
const BlockLen = 64

// Transpose64 transposes the 64x64 bit matrix held in a, in place:
// afterwards bit i of a[b] is what bit b of a[i] was. The
// transformation is an involution (applying it twice is the identity),
// which is how UnpackPlanes inverts PackPlanes. This is the classic
// recursive block-swap (Hacker's Delight 7-3): 6 rounds of delta swaps,
// ~3 ops per row per round — far below the 64 single-bit extractions
// per word of a naive transpose.
func Transpose64(a *[64]uint64) {
	// Each round swaps the high-column bits of the low row with the
	// low-column bits of the high row (row index and LSB-first bit index
	// are the two matrix axes; swapping the other pair of quadrants would
	// transpose along the anti-diagonal and reverse the lanes). The j=32
	// round is peeled so transposeTail can be shared with the narrow-word
	// fast path in PackPlanes.
	for k := 0; k < 32; k++ {
		t := ((a[k] >> 32) ^ a[k+32]) & 0x00000000FFFFFFFF
		a[k] ^= t << 32
		a[k+32] ^= t
	}
	transposeTail(a, 64)
}

// transposeTail runs the j=16..1 delta-swap rounds over the first rows
// rows of a (rows is 32 or 64). After the j=32 round, rows 0..31 and
// 32..63 never mix again, so callers that know rows 32..63 are zero
// (words all below 2^32) can skip them entirely — half the transpose.
// Each round is written out with its literal shift and mask so the
// swaps compile to immediate-operand instructions with the row bounds
// provable, which roughly halves the cost of the generic loop nest.
func transposeTail(a *[64]uint64, rows int) {
	for base := 0; base < rows; base += 32 {
		for k := base; k < base+16; k++ {
			t := ((a[k&63] >> 16) ^ a[(k+16)&63]) & 0x0000FFFF0000FFFF
			a[k&63] ^= t << 16
			a[(k+16)&63] ^= t
		}
	}
	transposeTail8(a, rows)
}

// transposeTailHalf is transposeTail specialized to rows == 32, the
// narrow-word partial-block path. With the row bound a constant every
// index is provably below 64, so the compiler drops both the bounds
// checks and the &63 wrap masking the generic loops need for the
// rows == 64 case.
func transposeTailHalf(a *[64]uint64) {
	for k := 0; k < 16; k++ {
		t := ((a[k] >> 16) ^ a[k+16]) & 0x0000FFFF0000FFFF
		a[k] ^= t << 16
		a[k+16] ^= t
	}
	transposeTail8Half(a)
}

// transposeTail8Half is transposeTail8 specialized to rows == 32 (see
// transposeTailHalf); it finishes the fused narrow full-block pack in
// PackPlanes, which runs once per 64-address block on every plane-path
// evaluation — the hottest transpose call site.
func transposeTail8Half(a *[64]uint64) {
	for base := 0; base < 32; base += 16 {
		for k := base; k < base+8; k++ {
			t := ((a[k] >> 8) ^ a[k+8]) & 0x00FF00FF00FF00FF
			a[k] ^= t << 8
			a[k+8] ^= t
		}
	}
	for base := 0; base < 32; base += 8 {
		for k := base; k < base+4; k++ {
			t := ((a[k] >> 4) ^ a[k+4]) & 0x0F0F0F0F0F0F0F0F
			a[k] ^= t << 4
			a[k+4] ^= t
		}
	}
	for base := 0; base < 32; base += 4 {
		for k := base; k < base+2; k++ {
			t := ((a[k] >> 2) ^ a[k+2]) & 0x3333333333333333
			a[k] ^= t << 2
			a[k+2] ^= t
		}
	}
	for k := 0; k < 32; k += 2 {
		t := ((a[k] >> 1) ^ a[k+1]) & 0x5555555555555555
		a[k] ^= t << 1
		a[k+1] ^= t
	}
}

// transposeTail8 is the j=8..1 suffix of transposeTail, split out so the
// full-block narrow pack can fuse the j=16 round with its interleave.
func transposeTail8(a *[64]uint64, rows int) {
	for base := 0; base < rows; base += 16 {
		for k := base; k < base+8; k++ {
			t := ((a[k&63] >> 8) ^ a[(k+8)&63]) & 0x00FF00FF00FF00FF
			a[k&63] ^= t << 8
			a[(k+8)&63] ^= t
		}
	}
	for base := 0; base < rows; base += 8 {
		for k := base; k < base+4; k++ {
			t := ((a[k&63] >> 4) ^ a[(k+4)&63]) & 0x0F0F0F0F0F0F0F0F
			a[k&63] ^= t << 4
			a[(k+4)&63] ^= t
		}
	}
	for base := 0; base < rows; base += 4 {
		for k := base; k < base+2; k++ {
			t := ((a[k&63] >> 2) ^ a[(k+2)&63]) & 0x3333333333333333
			a[k&63] ^= t << 2
			a[(k+2)&63] ^= t
		}
	}
	for k := 0; k < rows; k += 2 {
		t := ((a[k&63] >> 1) ^ a[(k+1)&63]) & 0x5555555555555555
		a[k&63] ^= t << 1
		a[(k+1)&63] ^= t
	}
}

// PackPlanes packs up to 64 words into bit-plane form: on return, bit i
// of planes[b] is bit b of words[i] (lane i = word i), and lanes beyond
// len(words) are zero in every plane. Panics if len(words) > BlockLen.
func PackPlanes(words []uint64, planes *[64]uint64) {
	if len(words) > BlockLen {
		panic("bus: PackPlanes block exceeds 64 words")
	}
	if len(words) == BlockLen {
		// Full-block fast path: when every word fits in 32 bits (the
		// paper's traces are at most 32 wide) the j=32 round degenerates
		// to interleaving row k+32's low half into row k's empty high
		// half, rows 32..63 become zero planes, and the remaining rounds
		// only have real work in rows 0..31 — half the transpose. The
		// interleave, the narrowness check and the j=16 round are all
		// fused into one pass over the input so the intermediate rows
		// never round-trip through memory.
		var or uint64
		for k := 0; k < 16; k++ {
			w0, w1, w2, w3 := words[k], words[k+16], words[k+32], words[k+48]
			or |= w0 | w1 | w2 | w3
			r1 := w0 | w2<<32
			r2 := w1 | w3<<32
			t := ((r1 >> 16) ^ r2) & 0x0000FFFF0000FFFF
			planes[k] = r1 ^ t<<16
			planes[k+16] = r2 ^ t
		}
		if or>>32 == 0 {
			for k := 32; k < 64; k++ {
				planes[k] = 0
			}
			transposeTail8Half(planes)
			return
		}
		// Wide words: rebuild the rows and take the general transpose.
		copy(planes[:], words)
		Transpose64(planes)
		return
	}
	var or uint64
	for i, w := range words {
		planes[i] = w
		or |= w
	}
	for i := len(words); i < 64; i++ {
		planes[i] = 0
	}
	if or>>32 == 0 {
		for k := 0; k < 32; k++ {
			planes[k] |= planes[k+32] << 32
			planes[k+32] = 0
		}
		transposeTailHalf(planes)
		return
	}
	Transpose64(planes)
}

// UnpackPlanes recovers the word forms of the first len(words) lanes of
// planes (the inverse of PackPlanes). planes is left untouched. Panics
// if len(words) > BlockLen.
func UnpackPlanes(planes *[64]uint64, words []uint64) {
	if len(words) > BlockLen {
		panic("bus: UnpackPlanes block exceeds 64 words")
	}
	tmp := *planes
	Transpose64(&tmp)
	copy(words, tmp[:len(words)])
}

// BlockLaneMask reports the lane mask an n-word block's diff planes
// must be built under: lanes 0..n-1 carry transitions, and when the bus
// is still undriven lane 0 is the initializing word — the paper's
// "first pattern costs nothing" convention — so its diff is masked out
// as well. The mask reflects the bus state at the time of the call; the
// first AccumulateEncoded consumes the undriven state, so callers must
// query the mask per block, before accumulating it.
func (b *Bus) BlockLaneMask(n int) uint64 {
	laneMask := ^uint64(0)
	if n < 64 {
		laneMask = (uint64(1) << uint(n)) - 1
	}
	if !b.driven {
		laneMask &^= 1
	}
	return laneMask
}

// blockMax folds an n-block's transition planes d[:width] to the
// largest per-cycle transition count via vertical carry-save counters:
// four planes per step — two ones-level full adders, one twos-level
// full adder, then a single weight-4 carry ripples the rest of the
// counter stack (lane i of cK holds bit K of cycle i's count).
// Straight-line and branchless — the per-cycle counts are
// data-dependent, so conditional early-exits here mispredict constantly
// on real traces. The counters then fold to the max by walking from the
// top bit narrowing the candidate lanes — the bit-sliced equivalent of
// the scalar per-word max comparison.
func blockMax(d *[64]uint64, width int) int {
	var c0, c1, c2, c3, c4, c5, c6 uint64
	pb := 0
	for ; pb+4 <= width; pb += 4 {
		d0, d1, d2, d3 := d[pb], d[pb+1], d[pb+2], d[pb+3]
		u := c0 ^ d0
		carryA := (c0 & d0) | (u & d1)
		s01 := u ^ d1
		v := s01 ^ d2
		carryB := (s01 & d2) | (v & d3)
		c0 = v ^ d3
		w := c1 ^ carryA
		carry := (c1 & carryA) | (w & carryB)
		c1 = w ^ carryB
		t := c2 & carry
		c2 ^= carry
		carry = t
		t = c3 & carry
		c3 ^= carry
		carry = t
		t = c4 & carry
		c4 ^= carry
		carry = t
		t = c5 & carry
		c5 ^= carry
		c6 |= t
	}
	for ; pb < width; pb++ {
		dd := d[pb]
		t := c0 & dd
		c0 ^= dd
		t, c1 = c1&t, c1^t
		t, c2 = c2&t, c2^t
		t, c3 = c3&t, c3^t
		t, c4 = c4&t, c4^t
		t, c5 = c5&t, c5^t
		c6 |= t
	}
	return foldMax(c0, c1, c2, c3, c4, c5, c6)
}

// foldMax reduces a stack of vertical counters (lane i of cK holds bit
// K of cycle i's transition count) to the largest per-lane value by
// walking from the top bit narrowing the candidate lanes — the
// bit-sliced equivalent of the scalar per-word max comparison.
// Branchless: whether a bit of the max is set is data-dependent with no
// pattern across blocks, so the obvious conditional narrows mispredict
// their way through all seven rounds; the arithmetic select costs a
// handful of ALU ops per round instead.
func foldMax(c0, c1, c2, c3, c4, c5, c6 uint64) int {
	maxv := uint64(0)
	cand := ^uint64(0)
	for k, vc := range [7]uint64{c6, c5, c4, c3, c2, c1, c0} {
		t := cand & vc
		nz := (t | -t) >> 63     // 1 when any candidate lane has this bit
		maxv |= nz << uint(6-k)  // set the max's bit
		cand ^= (cand ^ t) & -nz // narrow to those lanes when nonempty
	}
	return int(maxv)
}

// maxFuseAfter is how many consecutive failed nz screens flip a bus
// into the fused max loop. Low-toggle streams (sequential address
// traces) skip blockMax almost every block and never get close; on
// high-entropy streams the screen fails essentially always, and the
// fused loop is cheaper than screen + diff store + blockMax reload.
const maxFuseAfter = 8

// AccumulateEncoded drives the n encoded words packed in e (lane i of
// e[pb] = bit pb of word i) onto the bus. This is the counting core of
// the bit-sliced path: per plane it is one popcount (total and per-line
// counts), with max-per-cycle folded from vertical carry-save counters
// (blockMax) only when a free per-block bound says the block could beat
// the running max. Results are bit-identical to scalar Accumulate on
// the word forms. last must be word n-1 (callers on the word path have
// it for free; plane-domain encoders derive it scalar-ly from the
// block's final addresses). Lanes >= n and planes at or above the bus
// width are ignored, so callers need not mask either.
func (b *Bus) AccumulateEncoded(e *[64]uint64, n int, last uint64) {
	if n <= 0 {
		return
	}
	if n > BlockLen {
		panic("bus: AccumulateEncoded block exceeds 64 words")
	}
	laneMask := b.BlockLaneMask(n)
	prev := b.current
	b.driven = true
	b.cycles += int64(n)
	b.current = last & b.mask
	if b.maxFails >= maxFuseAfter {
		b.accumulateFused(e, laneMask, prev)
		return
	}
	total := b.total
	width := b.width
	if width > 64 {
		width = 64 // unreachable; aids bounds-check elimination
	}
	// Pass 1 builds the transition planes — lane-shifted XOR with the
	// carried-in line state feeding lane 0 (pv walks alongside pb so the
	// per-plane carry bit is a constant-shift extract) — and takes the
	// popcounts. nz counts the planes with any transition at all: no
	// cycle of the block can toggle more lines than there are toggling
	// planes, so it is a free upper bound on the block's max-per-cycle.
	// The vertical-counter fold (blockMax) runs only when that bound
	// beats the running max — after the max establishes itself in the
	// first blocks of a trace, almost never.
	d := &b.dScratch
	var nz int64
	pb := 0
	if b.perLine != nil {
		perLine := b.perLine[:width]
		for ; pb+4 <= width; pb += 4 {
			p0, p1, p2, p3 := e[pb], e[pb+1], e[pb+2], e[pb+3]
			pv := prev >> uint(pb)
			d0 := (p0 ^ (p0 << 1) ^ (pv & 1)) & laneMask
			d1 := (p1 ^ (p1 << 1) ^ ((pv >> 1) & 1)) & laneMask
			d2 := (p2 ^ (p2 << 1) ^ ((pv >> 2) & 1)) & laneMask
			d3 := (p3 ^ (p3 << 1) ^ ((pv >> 3) & 1)) & laneMask
			d[pb], d[pb+1], d[pb+2], d[pb+3] = d0, d1, d2, d3
			n0 := int64(bits.OnesCount64(d0))
			n1 := int64(bits.OnesCount64(d1))
			n2 := int64(bits.OnesCount64(d2))
			n3 := int64(bits.OnesCount64(d3))
			perLine[pb] += n0
			perLine[pb+1] += n1
			perLine[pb+2] += n2
			perLine[pb+3] += n3
			total += n0 + n1 + n2 + n3
			// (nK+63)>>6 is 0 for an empty plane and 1 otherwise.
			nz += (n0+63)>>6 + (n1+63)>>6 + (n2+63)>>6 + (n3+63)>>6
		}
		for ; pb < width; pb++ {
			p := e[pb]
			dd := (p ^ (p << 1) ^ ((prev >> uint(pb)) & 1)) & laneMask
			d[pb] = dd
			c := int64(bits.OnesCount64(dd))
			total += c
			perLine[pb] += c
			nz += (c + 63) >> 6
		}
	} else {
		for ; pb+4 <= width; pb += 4 {
			p0, p1, p2, p3 := e[pb], e[pb+1], e[pb+2], e[pb+3]
			pv := prev >> uint(pb)
			d0 := (p0 ^ (p0 << 1) ^ (pv & 1)) & laneMask
			d1 := (p1 ^ (p1 << 1) ^ ((pv >> 1) & 1)) & laneMask
			d2 := (p2 ^ (p2 << 1) ^ ((pv >> 2) & 1)) & laneMask
			d3 := (p3 ^ (p3 << 1) ^ ((pv >> 3) & 1)) & laneMask
			d[pb], d[pb+1], d[pb+2], d[pb+3] = d0, d1, d2, d3
			n0 := int64(bits.OnesCount64(d0))
			n1 := int64(bits.OnesCount64(d1))
			n2 := int64(bits.OnesCount64(d2))
			n3 := int64(bits.OnesCount64(d3))
			total += n0 + n1 + n2 + n3
			nz += (n0+63)>>6 + (n1+63)>>6 + (n2+63)>>6 + (n3+63)>>6
		}
		for ; pb < width; pb++ {
			p := e[pb]
			dd := (p ^ (p << 1) ^ ((prev >> uint(pb)) & 1)) & laneMask
			d[pb] = dd
			c := int64(bits.OnesCount64(dd))
			total += c
			nz += (c + 63) >> 6
		}
	}
	b.total = total
	if int(nz) > b.maxInWord {
		b.maxFails++
		if maxv := blockMax(d, width); maxv > b.maxInWord {
			b.maxInWord = maxv
		}
	} else {
		b.maxFails = 0
	}
}

// accumulateFused is AccumulateEncoded's loop for buses whose nz screen
// keeps failing (maxFails crossed maxFuseAfter): the vertical carry-save
// max counters accumulate inside the counting pass itself, so the block
// pays neither the screen arithmetic nor the transition-plane store and
// blockMax's reload of it. Statistics are bit-identical to the screened
// loop — the counters are exact, not a bound.
func (b *Bus) accumulateFused(e *[64]uint64, laneMask, prev uint64) {
	total := b.total
	width := b.width
	if width > 64 {
		width = 64 // unreachable; aids bounds-check elimination
	}
	var c0, c1, c2, c3, c4, c5, c6 uint64
	pb := 0
	if b.perLine != nil {
		perLine := b.perLine[:width]
		for ; pb+4 <= width; pb += 4 {
			p0, p1, p2, p3 := e[pb], e[pb+1], e[pb+2], e[pb+3]
			pv := prev >> uint(pb)
			d0 := (p0 ^ (p0 << 1) ^ (pv & 1)) & laneMask
			d1 := (p1 ^ (p1 << 1) ^ ((pv >> 1) & 1)) & laneMask
			d2 := (p2 ^ (p2 << 1) ^ ((pv >> 2) & 1)) & laneMask
			d3 := (p3 ^ (p3 << 1) ^ ((pv >> 3) & 1)) & laneMask
			n0 := int64(bits.OnesCount64(d0))
			n1 := int64(bits.OnesCount64(d1))
			n2 := int64(bits.OnesCount64(d2))
			n3 := int64(bits.OnesCount64(d3))
			perLine[pb] += n0
			perLine[pb+1] += n1
			perLine[pb+2] += n2
			perLine[pb+3] += n3
			total += n0 + n1 + n2 + n3
			u := c0 ^ d0
			carryA := (c0 & d0) | (u & d1)
			s01 := u ^ d1
			v := s01 ^ d2
			carryB := (s01 & d2) | (v & d3)
			c0 = v ^ d3
			w := c1 ^ carryA
			carry := (c1 & carryA) | (w & carryB)
			c1 = w ^ carryB
			t := c2 & carry
			c2 ^= carry
			carry = t
			t = c3 & carry
			c3 ^= carry
			carry = t
			t = c4 & carry
			c4 ^= carry
			carry = t
			t = c5 & carry
			c5 ^= carry
			c6 |= t
		}
		for ; pb < width; pb++ {
			p := e[pb]
			dd := (p ^ (p << 1) ^ ((prev >> uint(pb)) & 1)) & laneMask
			c := int64(bits.OnesCount64(dd))
			total += c
			perLine[pb] += c
			t := c0 & dd
			c0 ^= dd
			t, c1 = c1&t, c1^t
			t, c2 = c2&t, c2^t
			t, c3 = c3&t, c3^t
			t, c4 = c4&t, c4^t
			t, c5 = c5&t, c5^t
			c6 |= t
		}
	} else {
		for ; pb+4 <= width; pb += 4 {
			p0, p1, p2, p3 := e[pb], e[pb+1], e[pb+2], e[pb+3]
			pv := prev >> uint(pb)
			d0 := (p0 ^ (p0 << 1) ^ (pv & 1)) & laneMask
			d1 := (p1 ^ (p1 << 1) ^ ((pv >> 1) & 1)) & laneMask
			d2 := (p2 ^ (p2 << 1) ^ ((pv >> 2) & 1)) & laneMask
			d3 := (p3 ^ (p3 << 1) ^ ((pv >> 3) & 1)) & laneMask
			total += int64(bits.OnesCount64(d0)) + int64(bits.OnesCount64(d1)) +
				int64(bits.OnesCount64(d2)) + int64(bits.OnesCount64(d3))
			u := c0 ^ d0
			carryA := (c0 & d0) | (u & d1)
			s01 := u ^ d1
			v := s01 ^ d2
			carryB := (s01 & d2) | (v & d3)
			c0 = v ^ d3
			w := c1 ^ carryA
			carry := (c1 & carryA) | (w & carryB)
			c1 = w ^ carryB
			t := c2 & carry
			c2 ^= carry
			carry = t
			t = c3 & carry
			c3 ^= carry
			carry = t
			t = c4 & carry
			c4 ^= carry
			carry = t
			t = c5 & carry
			c5 ^= carry
			c6 |= t
		}
		for ; pb < width; pb++ {
			p := e[pb]
			dd := (p ^ (p << 1) ^ ((prev >> uint(pb)) & 1)) & laneMask
			total += int64(bits.OnesCount64(dd))
			t := c0 & dd
			c0 ^= dd
			t, c1 = c1&t, c1^t
			t, c2 = c2&t, c2^t
			t, c3 = c3&t, c3^t
			t, c4 = c4&t, c4^t
			t, c5 = c5&t, c5^t
			c6 |= t
		}
	}
	b.total = total
	if maxv := foldMax(c0, c1, c2, c3, c4, c5, c6); maxv > b.maxInWord {
		b.maxInWord = maxv
	}
}

// AccumulatePlanes drives the n words packed in planes onto the bus,
// producing bit-identical totals, per-line counts, max-per-cycle,
// cycles and line state to Accumulate on the word forms. Lane i of
// planes[b] must be bit b of word i for i < n; lanes >= n and planes at
// or above the bus width are ignored, so callers need not mask either.
// n must be in [0, BlockLen]. It is AccumulateEncoded plus the final
// word extracted from lane n-1 of the planes.
func (b *Bus) AccumulatePlanes(planes *[64]uint64, n int) {
	if n <= 0 {
		return
	}
	if n > BlockLen {
		panic("bus: AccumulatePlanes block exceeds 64 words")
	}
	width := b.width
	if width > 64 {
		width = 64
	}
	curShift := uint(n - 1)
	var last uint64
	for pb := 0; pb < width; pb++ {
		last |= ((planes[pb] >> curShift) & 1) << uint(pb)
	}
	b.AccumulateEncoded(planes, n, last)
}
