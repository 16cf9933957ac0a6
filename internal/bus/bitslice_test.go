package bus

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// naiveTranspose is Transpose64's reference: one bit at a time.
func naiveTranspose(a [64]uint64) [64]uint64 {
	var out [64]uint64
	for b := 0; b < 64; b++ {
		for i := 0; i < 64; i++ {
			out[b] |= (a[i] >> uint(b) & 1) << uint(i)
		}
	}
	return out
}

// checkTranspose requires Transpose64 to match naiveTranspose on a and
// to give a back when applied twice.
func checkTranspose(t *testing.T, label string, a [64]uint64) {
	t.Helper()
	got := a
	Transpose64(&got)
	if got != naiveTranspose(a) {
		t.Fatalf("%s: Transpose64 differs from the naive transpose", label)
	}
	Transpose64(&got)
	if got != a {
		t.Fatalf("%s: Transpose64 twice is not the identity", label)
	}
}

// TestTransposeRoundTrip: Transpose64 is an involution and matches a
// naive transpose, on full matrices, on rows of at most 32 bits and on
// matrices with only their first rows set.
func TestTransposeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 31, 63, 64} {
		var a, narrow [64]uint64
		copy(a[:], randomWords(n, int64(100+n)))
		for i := range a {
			narrow[i] = a[i] & Mask(32)
		}
		checkTranspose(t, fmt.Sprintf("n=%d", n), a)
		checkTranspose(t, fmt.Sprintf("n=%d/narrow", n), narrow)
	}
}

// accumulateBitsliced drives words onto b the way the per-line delta
// group counts, 64 words at a time: each word's toggle word against
// the one before it, popcounted for the total and the max per cycle and
// summed per line by a LineCounter, handed over with AddRun.
func accumulateBitsliced(b *Bus, words []uint64) {
	var tw [BlockLen]uint64
	for base := 0; base < len(words); base += BlockLen {
		blk := words[base:min(base+BlockLen, len(words))]
		prev := b.current
		if !b.driven {
			prev = blk[0] & b.mask
		}
		total, most := int64(0), 0
		for i, w := range blk {
			w &= b.mask
			tw[i] = prev ^ w
			c := bits.OnesCount64(tw[i])
			total += int64(c)
			most = max(most, c)
			prev = w
		}
		var lc LineCounter
		lc.Add(tw[:len(blk)])
		lines := make([]int64, b.width)
		lc.AddTo(lines)
		b.AddRun(int64(len(blk)), total, most, prev, lines)
	}
}

// checkParity drives words through a scalar reference bus and a
// bit-sliced one (accumulateBitsliced, chopped into chunks of chunkLen)
// and requires every observable statistic to match bit-for-bit.
func checkParity(t *testing.T, width int, words []uint64, chunkLen int, aggOnly bool) {
	t.Helper()
	mk := New
	if aggOnly {
		mk = NewAggregate
	}
	ref := mk(width)
	ref.Accumulate(words)
	bs := mk(width)
	for lo := 0; lo < len(words); lo += chunkLen {
		hi := lo + chunkLen
		if hi > len(words) {
			hi = len(words)
		}
		accumulateBitsliced(bs, words[lo:hi])
	}
	if bs.Transitions() != ref.Transitions() || bs.Cycles() != ref.Cycles() || bs.MaxPerCycle() != ref.MaxPerCycle() {
		t.Errorf("width=%d len=%d chunk=%d agg=%v: bitsliced %d/%d/%d vs scalar %d/%d/%d",
			width, len(words), chunkLen, aggOnly,
			bs.Transitions(), bs.Cycles(), bs.MaxPerCycle(),
			ref.Transitions(), ref.Cycles(), ref.MaxPerCycle())
	}
	if !reflect.DeepEqual(bs.PerLine(), ref.PerLine()) {
		t.Errorf("width=%d len=%d chunk=%d agg=%v: per-line counts diverge",
			width, len(words), chunkLen, aggOnly)
	}
}

// TestAccumulateBitslicedParity sweeps widths, stream lengths around
// LineCounter's 16-word step and the 64-word block, and chunk lengths
// 1, 63, 64, 65 and 4096, in both per-line and aggregate modes.
func TestAccumulateBitslicedParity(t *testing.T) {
	for _, width := range []int{1, 2, 7, 16, 17, 21, 32, 33, 63, 64} {
		for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 4096} {
			words := randomWords(n, int64(width*10000+n))
			for _, chunkLen := range []int{1, 63, 64, 65, 4096} {
				if chunkLen > n && chunkLen != 4096 {
					continue
				}
				checkParity(t, width, words, chunkLen, false)
				checkParity(t, width, words, chunkLen, true)
			}
		}
	}
}

// TestAccumulateBitslicedRepeats: runs of identical and near-identical
// words (the DMA/burst shape) give zero toggle words, which the scalar
// walk skips and the adders must add as nothing.
func TestAccumulateBitslicedRepeats(t *testing.T) {
	words := make([]uint64, 300)
	for i := range words {
		words[i] = 0xABCD
		if i%37 == 0 {
			words[i] = uint64(i)
		}
	}
	checkParity(t, 20, words, 64, false)
	checkParity(t, 20, words, 64, true)
}

// TestAccumulateBitslicedPrimed: parity must also hold when the bus was
// already driven (the first word toggles against the carried-in line
// state rather than being consumed as the initializer).
func TestAccumulateBitslicedPrimed(t *testing.T) {
	words := randomWords(200, 7)
	ref := New(29)
	bs := New(29)
	ref.Prime(0x12345678)
	bs.Prime(0x12345678)
	ref.Accumulate(words)
	accumulateBitsliced(bs, words)
	if bs.Transitions() != ref.Transitions() || bs.Cycles() != ref.Cycles() || bs.MaxPerCycle() != ref.MaxPerCycle() {
		t.Errorf("primed: bitsliced %d/%d/%d vs scalar %d/%d/%d",
			bs.Transitions(), bs.Cycles(), bs.MaxPerCycle(),
			ref.Transitions(), ref.Cycles(), ref.MaxPerCycle())
	}
	if !reflect.DeepEqual(bs.PerLine(), ref.PerLine()) {
		t.Error("primed: per-line counts diverge")
	}
}

// FuzzTransposeRoundTrip: Transpose64 is an involution and matches a
// naive transpose on any matrix: the seed's random rows, kept to their
// low width bits, with rows at or past n cleared.
func FuzzTransposeRoundTrip(f *testing.F) {
	f.Add(uint8(32), int64(1), uint16(64))
	f.Add(uint8(1), int64(2), uint16(1))
	f.Add(uint8(64), int64(3), uint16(65))
	f.Add(uint8(21), int64(4), uint16(4096))
	f.Fuzz(func(t *testing.T, widthB uint8, seed int64, nB uint16) {
		width := int(widthB)%64 + 1
		n := int(nB) % 65
		var a [64]uint64
		for i, w := range randomWords(n, seed) {
			a[i] = w & Mask(width)
		}
		checkTranspose(t, fmt.Sprintf("width=%d n=%d", width, n), a)
	})
}

func benchWords(n int) []uint64 {
	rng := rand.New(rand.NewSource(99))
	out := make([]uint64, n)
	for i := range out {
		// Realistic address-trace shape: mostly sequential with jumps.
		if i == 0 || rng.Intn(8) == 0 {
			out[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			out[i] = out[i-1] + 4
		}
	}
	return out
}

// BenchmarkAccumulatePerLine: the scalar per-line kernel, a
// TrailingZeros64 walk over every toggle.
func BenchmarkAccumulatePerLine(b *testing.B) {
	words := benchWords(1 << 16)
	bus := New(32)
	b.SetBytes(int64(len(words) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Reset()
		bus.Accumulate(words)
	}
}

// BenchmarkAccumulatePerLineBitsliced: the same workload counted per
// line by a LineCounter (accumulateBitsliced).
func BenchmarkAccumulatePerLineBitsliced(b *testing.B) {
	words := benchWords(1 << 16)
	bus := New(32)
	b.SetBytes(int64(len(words) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Reset()
		accumulateBitsliced(bus, words)
	}
}

// BenchmarkAccumulateAggregate: scalar aggregate-only baseline, for the
// README performance table.
func BenchmarkAccumulateAggregate(b *testing.B) {
	words := benchWords(1 << 16)
	bus := NewAggregate(32)
	b.SetBytes(int64(len(words) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Reset()
		bus.Accumulate(words)
	}
}
