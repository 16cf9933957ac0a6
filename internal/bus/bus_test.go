package bus

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadWidth(t *testing.T) {
	for _, w := range []int{-1, 0, 65, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", w)
				}
			}()
			New(w)
		}()
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		width int
		want  uint64
	}{
		{1, 0x1},
		{4, 0xF},
		{8, 0xFF},
		{32, 0xFFFFFFFF},
		{63, 0x7FFFFFFFFFFFFFFF},
		{64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.width); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.width, got, c.want)
		}
	}
}

func TestFirstDriveCostsNothing(t *testing.T) {
	b := New(8)
	if n := b.Drive(0xFF); n != 0 {
		t.Errorf("first Drive reported %d transitions, want 0", n)
	}
	if b.Transitions() != 0 {
		t.Errorf("Transitions after first drive = %d, want 0", b.Transitions())
	}
	if b.Cycles() != 1 {
		t.Errorf("Cycles = %d, want 1", b.Cycles())
	}
}

func TestDriveCountsToggles(t *testing.T) {
	b := New(8)
	b.Drive(0x00)
	if n := b.Drive(0x0F); n != 4 {
		t.Errorf("0x00 -> 0x0F reported %d, want 4", n)
	}
	if n := b.Drive(0x0F); n != 0 {
		t.Errorf("repeat drive reported %d, want 0", n)
	}
	if n := b.Drive(0xF0); n != 8 {
		t.Errorf("0x0F -> 0xF0 reported %d, want 8", n)
	}
	if b.Transitions() != 12 {
		t.Errorf("total = %d, want 12", b.Transitions())
	}
	if b.MaxPerCycle() != 8 {
		t.Errorf("MaxPerCycle = %d, want 8", b.MaxPerCycle())
	}
}

func TestDriveMasksToWidth(t *testing.T) {
	b := New(4)
	b.Drive(0x0)
	if n := b.Drive(0xF0); n != 0 {
		t.Errorf("bits above the bus width toggled: %d", n)
	}
	if b.Current() != 0 {
		t.Errorf("Current = %#x, want 0", b.Current())
	}
}

func TestPerLine(t *testing.T) {
	b := New(4)
	b.Drive(0b0000)
	b.Drive(0b0001) // line 0
	b.Drive(0b0011) // line 1
	b.Drive(0b0010) // line 0
	per := b.PerLine()
	want := []int64{2, 1, 0, 0}
	for i := range want {
		if per[i] != want[i] {
			t.Errorf("line %d: %d transitions, want %d", i, per[i], want[i])
		}
	}
	// The returned slice must be a copy.
	per[0] = 99
	if b.PerLine()[0] != 2 {
		t.Error("PerLine returned internal state, not a copy")
	}
}

func TestAverages(t *testing.T) {
	b := New(4)
	if b.AvgPerCycle() != 0 {
		t.Error("AvgPerCycle on empty bus should be 0")
	}
	b.Drive(0b0000)
	b.Drive(0b1111)
	b.Drive(0b0000)
	if got := b.AvgPerCycle(); got != 4 {
		t.Errorf("AvgPerCycle = %v, want 4", got)
	}
	if got := b.AvgPerLine(); got != 1 {
		t.Errorf("AvgPerLine = %v, want 1", got)
	}
}

func TestReset(t *testing.T) {
	b := New(8)
	b.Drive(0xAA)
	b.Drive(0x55)
	b.Reset()
	if b.Transitions() != 0 || b.Cycles() != 0 || b.MaxPerCycle() != 0 {
		t.Error("Reset did not clear statistics")
	}
	if n := b.Drive(0xFF); n != 0 {
		t.Errorf("first drive after Reset reported %d, want 0", n)
	}
	for i, c := range b.PerLine() {
		if c != 0 {
			t.Errorf("line %d count %d after Reset", i, c)
		}
	}
}

func TestHamming(t *testing.T) {
	cases := []struct {
		a, b  uint64
		width int
		want  int
	}{
		{0, 0, 32, 0},
		{0xFF, 0, 8, 8},
		{0xFF, 0, 4, 4}, // width restricts the comparison
		{0b1010, 0b0101, 4, 4},
		{^uint64(0), 0, 64, 64},
	}
	for _, c := range cases {
		if got := Hamming(c.a, c.b, c.width); got != c.want {
			t.Errorf("Hamming(%#x, %#x, %d) = %d, want %d", c.a, c.b, c.width, got, c.want)
		}
	}
}

func TestCountTransitionsMatchesBus(t *testing.T) {
	seq := []uint64{0, 1, 3, 7, 2, 0xFF, 0xFF, 0}
	b := New(8)
	for _, w := range seq {
		b.Drive(w)
	}
	if got := CountTransitions(seq, 8); got != b.Transitions() {
		t.Errorf("CountTransitions = %d, Bus total = %d", got, b.Transitions())
	}
}

func TestCountTransitionsEdgeCases(t *testing.T) {
	if CountTransitions(nil, 32) != 0 {
		t.Error("nil sequence should have 0 transitions")
	}
	if CountTransitions([]uint64{42}, 32) != 0 {
		t.Error("single-word sequence should have 0 transitions")
	}
}

// Property: total transitions equal the sum of pairwise Hamming distances.
func TestDriveMatchesHammingProperty(t *testing.T) {
	f := func(words []uint64) bool {
		const width = 24
		b := New(width)
		var want int64
		for i, w := range words {
			b.Drive(w)
			if i > 0 {
				want += int64(bits.OnesCount64((words[i-1] ^ w) & Mask(width)))
			}
		}
		return b.Transitions() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: per-line counts sum to the total.
func TestPerLineSumsToTotal(t *testing.T) {
	f := func(words []uint64) bool {
		b := New(16)
		for _, w := range words {
			b.Drive(w)
		}
		var sum int64
		for _, c := range b.PerLine() {
			sum += c
		}
		return sum == b.Transitions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAddRunMatchesDrive: a run counted outside the bus and handed over
// with AddRun, split anywhere, leaves the same statistics and line state
// as driving its words, the undriven bus's first word costing nothing.
func TestAddRunMatchesDrive(t *testing.T) {
	words := []uint64{0x1f, 0x3, 0x3, 0xffff, 0x10, 0x8000_0001, 0x7}
	for _, perLine := range []bool{false, true} {
		mk := func() *Bus {
			if perLine {
				return New(17)
			}
			return NewAggregate(17)
		}
		want := mk()
		for _, w := range words {
			want.Drive(w)
		}
		for cut := 0; cut <= len(words); cut++ {
			got := mk()
			prev, driven := uint64(0), false
			for _, run := range [][]uint64{words[:cut], words[cut:]} {
				var total int64
				most := 0
				lines := make([]int64, 17)
				for _, w := range run {
					w &= Mask(17)
					if driven {
						d := prev ^ w
						total += int64(bits.OnesCount64(d))
						most = max(most, bits.OnesCount64(d))
						for ; d != 0; d &= d - 1 {
							lines[bits.TrailingZeros64(d)]++
						}
					}
					prev, driven = w, true
				}
				got.AddRun(int64(len(run)), total, most, prev, lines)
			}
			if got.Cycles() != want.Cycles() || got.Transitions() != want.Transitions() ||
				got.MaxPerCycle() != want.MaxPerCycle() || got.Current() != want.Current() {
				t.Fatalf("perline=%v cut %d: AddRun %d/%d/%d/%#x, Drive %d/%d/%d/%#x", perLine, cut,
					got.Cycles(), got.Transitions(), got.MaxPerCycle(), got.Current(),
					want.Cycles(), want.Transitions(), want.MaxPerCycle(), want.Current())
			}
			if gl, wl := got.PerLine(), want.PerLine(); !slices.Equal(gl, wl) {
				t.Fatalf("perline=%v cut %d: per-line %v, Drive %v", perLine, cut, gl, wl)
			}
		}
	}
}
