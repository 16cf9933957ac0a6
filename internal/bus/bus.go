// Package bus models a parallel bus as a set of binary lines and accounts
// for the switching activity (bit transitions) caused by driving a sequence
// of words onto it.
//
// Power dissipated at a bus line is proportional to the number of 0->1 and
// 1->0 transitions on that line (P = alpha * C * Vdd^2 * f), so transition
// counts are the paper's primary metric. The package counts transitions per
// line and in aggregate, and computes Hamming distances between words.
package bus

import (
	"fmt"
	"math/bits"
)

// MaxWidth is the widest bus representable by a single uint64 word.
const MaxWidth = 64

// Bus is a parallel bus with a fixed number of lines. Driving words onto
// the bus accumulates per-line and aggregate transition counts. The zero
// value is not usable; construct with New.
type Bus struct {
	width     int
	mask      uint64
	current   uint64
	driven    bool
	cycles    int64
	total     int64
	perLine   []int64
	maxInWord int // largest number of lines toggling in a single cycle
}

// New returns a bus with the given number of lines (1..MaxWidth).
func New(width int) *Bus {
	if width <= 0 || width > MaxWidth {
		panic(fmt.Sprintf("bus: invalid width %d", width))
	}
	return &Bus{
		width:   width,
		mask:    Mask(width),
		perLine: make([]int64, width),
	}
}

// NewAggregate returns a bus that accumulates only aggregate statistics
// (total transitions, cycles, max per cycle). Drive skips the per-line
// bit-scan loop entirely, which roughly halves the cost of counting on
// streams with many toggling lines; PerLine reports nil. Use it when the
// caller only needs Result-level totals — the batched evaluation engine
// does, unless per-line counts are explicitly requested.
func NewAggregate(width int) *Bus {
	if width <= 0 || width > MaxWidth {
		panic(fmt.Sprintf("bus: invalid width %d", width))
	}
	return &Bus{width: width, mask: Mask(width)}
}

// Mask returns a mask with the low width bits set.
func Mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// Width returns the number of lines.
func (b *Bus) Width() int { return b.width }

// Drive places word on the bus lines and returns the number of lines that
// toggled relative to the previously driven word. The first drive
// initializes the lines and reports zero transitions, matching the paper's
// convention that activity is counted between successive patterns.
func (b *Bus) Drive(word uint64) int {
	word &= b.mask
	if !b.driven {
		b.driven = true
		b.current = word
		b.cycles++
		return 0
	}
	diff := b.current ^ word
	n := bits.OnesCount64(diff)
	b.total += int64(n)
	b.cycles++
	if n > b.maxInWord {
		b.maxInWord = n
	}
	if b.perLine != nil {
		for diff != 0 {
			i := bits.TrailingZeros64(diff)
			b.perLine[i]++
			diff &= diff - 1
		}
	}
	b.current = word
	return n
}

// Current returns the word currently held on the lines. Valid only after
// at least one Drive.
func (b *Bus) Current() uint64 { return b.current }

// Driven reports whether the lines hold a word: one was driven, or the
// bus was primed or took a run.
func (b *Bus) Driven() bool { return b.driven }

// Transitions returns the total number of line transitions accumulated.
func (b *Bus) Transitions() int64 { return b.total }

// Cycles returns the number of words driven (including the first).
func (b *Bus) Cycles() int64 { return b.cycles }

// PerLine returns a copy of the per-line transition counts, index 0 being
// the least significant line. It returns nil for a bus constructed with
// NewAggregate.
func (b *Bus) PerLine() []int64 {
	if b.perLine == nil {
		return nil
	}
	out := make([]int64, len(b.perLine))
	copy(out, b.perLine)
	return out
}

// MaxPerCycle returns the largest number of lines that toggled in any
// single cycle so far.
func (b *Bus) MaxPerCycle() int { return b.maxInWord }

// AvgPerCycle returns the mean transitions per clock cycle. The first
// drive establishes the reference and is excluded from the denominator.
func (b *Bus) AvgPerCycle() float64 {
	if b.cycles <= 1 {
		return 0
	}
	return float64(b.total) / float64(b.cycles-1)
}

// AvgPerLine returns the mean per-line transition probability per cycle,
// i.e. AvgPerCycle normalized by the bus width.
func (b *Bus) AvgPerLine() float64 {
	return b.AvgPerCycle() / float64(b.width)
}

// Prime sets the line state to word without counting a cycle or any
// transitions: the bus behaves exactly as if word had been the last word
// driven by someone else. Shard pricing (codec.Pricer.Seed) uses it to
// seed a shard's accumulator with the word driven just before the shard
// boundary, so the boundary transition is counted exactly once — by the
// shard that drives the following word.
func (b *Bus) Prime(word uint64) {
	b.current = word & b.mask
	b.driven = true
}

// AddRun folds in a run of cycles words that were counted outside the
// bus, as if each had been driven in turn: transitions in total, at most
// maxPerCycle lines toggling in any one cycle, ending on word last.
// perLine adds per-line counts (index 0 the least significant line)
// when the bus keeps them; it may be nil for an aggregate bus. On an
// undriven bus the run's first word is the bus's first, and the caller
// counts no transitions for it, as Drive does. The codec package's
// in-sequence group prices its runs from bit masks and never builds the
// words, so it hands its counts over here.
func (b *Bus) AddRun(cycles, transitions int64, maxPerCycle int, last uint64, perLine []int64) {
	if cycles == 0 {
		return
	}
	b.cycles += cycles
	b.total += transitions
	b.maxInWord = max(b.maxInWord, maxPerCycle)
	if b.perLine != nil && perLine != nil {
		for i, v := range perLine[:b.width] {
			b.perLine[i] += v
		}
	}
	b.current = last & b.mask
	b.driven = true
}

// Merge folds the statistics of o — a bus of the same width that
// continued counting where b left off — into b: totals, cycles and
// per-line counts add, the max-per-cycle is the pair's max, and b's line
// state advances to o's. Per-shard accumulators reduce with Merge
// without re-walking any words; merging in ascending shard order keeps
// the reduction deterministic. Merging a full (per-line) bus into an
// aggregate-only one, or vice versa, loses no aggregate data but keeps
// only the counts both sides track.
func (b *Bus) Merge(o *Bus) {
	if o.width != b.width {
		panic(fmt.Sprintf("bus: merge of width %d into width %d", o.width, b.width))
	}
	b.total += o.total
	b.cycles += o.cycles
	if o.maxInWord > b.maxInWord {
		b.maxInWord = o.maxInWord
	}
	if b.perLine != nil && o.perLine != nil {
		for i, v := range o.perLine {
			b.perLine[i] += v
		}
	}
	if o.driven {
		b.current = o.current
		b.driven = true
	}
}

// Reset clears all accumulated statistics and the line state.
func (b *Bus) Reset() {
	b.current = 0
	b.driven = false
	b.cycles = 0
	b.total = 0
	b.maxInWord = 0
	for i := range b.perLine {
		b.perLine[i] = 0
	}
}

// Hamming returns the Hamming distance between a and b restricted to the
// low width bits.
func Hamming(a, b uint64, width int) int {
	return bits.OnesCount64((a ^ b) & Mask(width))
}

// CountTransitions returns the total number of line transitions produced
// by driving the words of seq, in order, onto a bus of the given width.
func CountTransitions(seq []uint64, width int) int64 {
	m := Mask(width)
	var total int64
	for i := 1; i < len(seq); i++ {
		total += int64(bits.OnesCount64((seq[i-1] ^ seq[i]) & m))
	}
	return total
}
