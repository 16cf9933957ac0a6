package bus

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestTransposeRoundTrip: Transpose64 is an involution, so PackPlanes
// followed by UnpackPlanes must reproduce the input words exactly.
func TestTransposeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 31, 63, 64} {
		words := randomWords(n, int64(100+n))
		var planes [64]uint64
		PackPlanes(words, &planes)
		got := make([]uint64, n)
		UnpackPlanes(&planes, got)
		if n > 0 && !reflect.DeepEqual(got, words) {
			t.Errorf("n=%d: round trip diverged", n)
		}
	}
}

// TestPackPlanesLayout: bit i of planes[b] must be bit b of words[i].
func TestPackPlanesLayout(t *testing.T) {
	words := randomWords(64, 4)
	var planes [64]uint64
	PackPlanes(words, &planes)
	for b := 0; b < 64; b++ {
		for i := 0; i < 64; i++ {
			if (planes[b]>>uint(i))&1 != (words[i]>>uint(b))&1 {
				t.Fatalf("plane %d lane %d: bit mismatch", b, i)
			}
		}
	}
}

// TestPackPlanesShortBlock: lanes beyond len(words) must be zero in
// every plane, so a partial block never leaks stale data.
func TestPackPlanesShortBlock(t *testing.T) {
	var planes [64]uint64
	for i := range planes {
		planes[i] = ^uint64(0) // poison
	}
	words := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	PackPlanes(words, &planes)
	for b := 0; b < 64; b++ {
		if planes[b] != 0b111 {
			t.Fatalf("plane %d = %#x, want 0b111", b, planes[b])
		}
	}
}

// accumulateBitsliced drives words onto b through the bit-plane kernel
// the codec plane runners use: PackPlanes transposes 64 words at a
// time and AccumulatePlanes counts each block.
func accumulateBitsliced(b *Bus, words []uint64) {
	var planes [64]uint64
	for base := 0; base < len(words); base += BlockLen {
		end := min(base+BlockLen, len(words))
		PackPlanes(words[base:end], &planes)
		b.AccumulatePlanes(&planes, end-base)
	}
}

// checkParity drives words through a scalar reference bus and a
// bit-sliced bus (chopped into chunks of chunkLen) and requires every
// observable statistic to match bit-for-bit.
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

// TestAccumulateBitslicedParity sweeps widths and the chunk lengths the
// issue pins (1, 63, 64, 65, 4096) plus uneven re-chunkings, in both
// per-line and aggregate modes.
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
// words (the DMA/burst shape) exercise the diff==0 paths on both sides.
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
// already driven (lane 0 diffs against the carried-in line state rather
// than being consumed as the initializer).
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

// TestAccumulatePlanesIgnoresDirtyHighLanes: words may carry garbage
// above the bus width and lanes >= n may be nonzero; AccumulatePlanes
// documents that both are ignored.
func TestAccumulatePlanesIgnoresDirtyHighLanes(t *testing.T) {
	words := randomWords(40, 8) // full 64-bit garbage, bus is narrower
	ref := New(13)
	ref.Accumulate(words)
	var planes [64]uint64
	PackPlanes(words, &planes)
	// Poison the unused lanes of every plane the kernel may read.
	poison := ^uint64(0)
	poison <<= 40
	for b := 0; b < 13; b++ {
		planes[b] |= poison
	}
	bs := New(13)
	bs.AccumulatePlanes(&planes, 40)
	if bs.Transitions() != ref.Transitions() || bs.MaxPerCycle() != ref.MaxPerCycle() {
		t.Errorf("dirty lanes: bitsliced %d/%d vs scalar %d/%d",
			bs.Transitions(), bs.MaxPerCycle(), ref.Transitions(), ref.MaxPerCycle())
	}
	if !reflect.DeepEqual(bs.PerLine(), ref.PerLine()) {
		t.Error("dirty lanes: per-line counts diverge")
	}
}

// FuzzTransposeRoundTrip fuzzes the two properties the issue pins:
// pack→unpack is the identity, and scalar vs bit-sliced statistics
// agree for arbitrary widths and data.
func FuzzTransposeRoundTrip(f *testing.F) {
	f.Add(uint8(32), int64(1), uint16(64))
	f.Add(uint8(1), int64(2), uint16(1))
	f.Add(uint8(64), int64(3), uint16(65))
	f.Add(uint8(21), int64(4), uint16(4096))
	f.Fuzz(func(t *testing.T, widthB uint8, seed int64, nB uint16) {
		width := int(widthB)%64 + 1
		n := int(nB)%4096 + 1
		words := randomWords(n, seed)
		block := words
		if len(block) > 64 {
			block = block[:64]
		}
		var planes [64]uint64
		PackPlanes(block, &planes)
		got := make([]uint64, len(block))
		UnpackPlanes(&planes, got)
		if !reflect.DeepEqual(got, block) {
			t.Fatal("pack→unpack is not the identity")
		}
		checkParity(t, width, words, 64, false)
		checkParity(t, width, words, 64, true)
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

// BenchmarkAccumulatePerLine: the scalar per-line kernel (the path the
// diff==0 early exit and the bit-sliced kernel both target).
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

// BenchmarkAccumulatePerLineBitsliced: the same workload through the
// transposed bit-plane kernel.
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
