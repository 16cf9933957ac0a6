package bus

import "math/bits"

// Bit-sliced per-line counting. The scalar Accumulate finds a word's
// toggling lines with a TrailingZeros64 walk over every set bit of its
// diff, one memory increment per toggle. A LineCounter sums the same
// diffs ("toggle words": each word XOR the one before it) line by line
// in bit-sliced counters instead, one counter per line the way a
// hardware bit transition counter keeps them: lane j of each counter
// word holds one bit of line j's count, so 16 toggle words fold in with
// 15 full adders, a few operations per word whatever the number of
// lines, and a line's count in memory moves only when the counter
// spills. Parity with the scalar walk is pinned by bitslice_test.go.

// BlockLen is the number of entries per block of the kernels that work
// 64 lanes at a time, one lane per bit of a machine word.
const BlockLen = 64

// LineCounter counts toggle words line by line: after any sequence of
// Add calls, AddTo adds to lines[j] the number of words added with bit
// j set. It is the positional popcount of Harley and Seal's carry-save
// adder tree (Muła, Kurz and Lemire, "Faster Population Counts Using
// AVX2 Instructions", The Computer Journal 2018, here in scalar form),
// in two levels: each 16 toggle words fold into lo, which holds bits
// 0-4 of each line's count, and each 16 of lo's carries (weight 32)
// fold the same way into hi, whose own carries (weight 1024) go to
// lines one set bit at a time. The zero value is an empty counter.
type LineCounter struct {
	lo, hi [5]uint64
	carry  [16]uint64 // lo's carries not yet folded into hi
	n      int        // how many of carry are set
	lines  [MaxWidth]int64
}

// Add counts words. A last block of fewer than 16 words counts as if
// padded with zero words, which toggle no line.
func (c *LineCounter) Add(words []uint64) {
	var tail [16]uint64
	for len(words) > 0 {
		w := &tail
		if len(words) >= 16 {
			w, words = (*[16]uint64)(words), words[16:]
		} else {
			copy(tail[:], words)
			words = nil
		}
		c.carry[c.n] = fold(&c.lo, w)
		if c.n++; c.n == len(c.carry) {
			addBits(&c.lines, fold(&c.hi, &c.carry), 1024)
			c.n = 0
		}
	}
}

// AddTo adds the per-line counts of the words added since the counter
// was last empty to lines (index 0 the least significant line, len at
// most MaxWidth) and empties the counter.
func (c *LineCounter) AddTo(lines []int64) {
	clear(c.carry[c.n:])
	addBits(&c.lines, fold(&c.hi, &c.carry), 1024)
	for k := range c.lo {
		addBits(&c.lines, c.lo[k], 1<<k)
		addBits(&c.lines, c.hi[k], 32<<k)
	}
	for j := range lines {
		lines[j] += c.lines[j]
	}
	*c = LineCounter{}
}

// fold adds the 16 words w to the bit-sliced counter l (l[k] holds bit
// k of each lane's count) with 15 full adders and returns the lanes
// that carry out of it, each worth 32.
func fold(l *[5]uint64, w *[16]uint64) uint64 {
	ones, twos, fours, eights, sixteens := l[0], l[1], l[2], l[3], l[4]
	var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteensA, carry uint64
	ones, twosA = csa(ones, w[0], w[1])
	ones, twosB = csa(ones, w[2], w[3])
	twos, foursA = csa(twos, twosA, twosB)
	ones, twosA = csa(ones, w[4], w[5])
	ones, twosB = csa(ones, w[6], w[7])
	twos, foursB = csa(twos, twosA, twosB)
	fours, eightsA = csa(fours, foursA, foursB)
	ones, twosA = csa(ones, w[8], w[9])
	ones, twosB = csa(ones, w[10], w[11])
	twos, foursA = csa(twos, twosA, twosB)
	ones, twosA = csa(ones, w[12], w[13])
	ones, twosB = csa(ones, w[14], w[15])
	twos, foursB = csa(twos, twosA, twosB)
	fours, eightsB = csa(fours, foursA, foursB)
	eights, sixteensA = csa(eights, eightsA, eightsB)
	sixteens, carry = sixteens^sixteensA, sixteens&sixteensA
	*l = [5]uint64{ones, twos, fours, eights, sixteens}
	return carry
}

// csa is a full adder over 64 lanes at once: per lane, a + b + c is
// sum + 2*carry.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}

// addBits adds weight to lines[j] for every bit j set in w.
func addBits(lines *[MaxWidth]int64, w uint64, weight int64) {
	for ; w != 0; w &= w - 1 {
		lines[bits.TrailingZeros64(w)] += weight
	}
}

// Transpose64 transposes the 64x64 bit matrix held in a, in place:
// afterwards bit i of a[b] is what bit b of a[i] was. The
// transformation is an involution (applying it twice is the identity).
// This is the classic recursive block-swap (Hacker's Delight 7-3): 6
// rounds of delta swaps, ~3 ops per row per round — far below the 64
// single-bit extractions per word of a naive transpose. No pricing path
// transposes any more; benchmarks time it as a reference kernel.
func Transpose64(a *[64]uint64) {
	// Each round swaps the high-column bits of the low row with the
	// low-column bits of the high row (row index and LSB-first bit index
	// are the two matrix axes; swapping the other pair of quadrants would
	// transpose along the anti-diagonal and reverse the lanes). Each
	// round is written out with its literal shift and mask, and its row
	// indices wrapped with &63, so the swaps compile to immediate-operand
	// instructions with the row bounds provable.
	for k := 0; k < 32; k++ {
		t := ((a[k] >> 32) ^ a[k+32]) & 0x00000000FFFFFFFF
		a[k] ^= t << 32
		a[k+32] ^= t
	}
	for base := 0; base < 64; base += 32 {
		for k := base; k < base+16; k++ {
			t := ((a[k&63] >> 16) ^ a[(k+16)&63]) & 0x0000FFFF0000FFFF
			a[k&63] ^= t << 16
			a[(k+16)&63] ^= t
		}
	}
	for base := 0; base < 64; base += 16 {
		for k := base; k < base+8; k++ {
			t := ((a[k&63] >> 8) ^ a[(k+8)&63]) & 0x00FF00FF00FF00FF
			a[k&63] ^= t << 8
			a[(k+8)&63] ^= t
		}
	}
	for base := 0; base < 64; base += 8 {
		for k := base; k < base+4; k++ {
			t := ((a[k&63] >> 4) ^ a[(k+4)&63]) & 0x0F0F0F0F0F0F0F0F
			a[k&63] ^= t << 4
			a[(k+4)&63] ^= t
		}
	}
	for base := 0; base < 64; base += 4 {
		for k := base; k < base+2; k++ {
			t := ((a[k&63] >> 2) ^ a[(k+2)&63]) & 0x3333333333333333
			a[k&63] ^= t << 2
			a[(k+2)&63] ^= t
		}
	}
	for k := 0; k < 64; k += 2 {
		t := ((a[k&63] >> 1) ^ a[(k+1)&63]) & 0x5555555555555555
		a[k&63] ^= t << 1
		a[(k+1)&63] ^= t
	}
}
