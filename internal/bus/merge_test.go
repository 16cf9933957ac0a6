package bus

import (
	"reflect"
	"strings"
	"testing"
)

// TestMergeMatchesSequential: driving a word sequence split across two
// buses — the second primed with the word at the split — and merging
// must reproduce the single-bus statistics exactly, in both modes and
// at every split point of a small sequence.
func TestMergeMatchesSequential(t *testing.T) {
	words := randomWords(300, 7)
	const width = 29
	for _, aggOnly := range []bool{false, true} {
		mk := New
		if aggOnly {
			mk = NewAggregate
		}
		ref := mk(width)
		ref.Accumulate(words)
		for cut := 1; cut < len(words); cut += 13 {
			lo := mk(width)
			lo.Accumulate(words[:cut])
			hi := mk(width)
			hi.Prime(words[cut-1])
			hi.Accumulate(words[cut:])
			lo.Merge(hi)
			if lo.Transitions() != ref.Transitions() || lo.Cycles() != ref.Cycles() ||
				lo.MaxPerCycle() != ref.MaxPerCycle() {
				t.Errorf("aggOnly=%v cut=%d: merged %d/%d/%d vs sequential %d/%d/%d",
					aggOnly, cut, lo.Transitions(), lo.Cycles(), lo.MaxPerCycle(),
					ref.Transitions(), ref.Cycles(), ref.MaxPerCycle())
			}
			if !reflect.DeepEqual(lo.PerLine(), ref.PerLine()) {
				t.Errorf("aggOnly=%v cut=%d: per-line counts diverge", aggOnly, cut)
			}
			if lo.Current() != ref.Current() {
				t.Errorf("aggOnly=%v cut=%d: line state %#x, want %#x",
					aggOnly, cut, lo.Current(), ref.Current())
			}
		}
	}
}

// TestPrimeCountsNoCycle: a primed bus reports zero cycles and zero
// transitions until something is driven, and the first drive after a
// prime counts the transition from the primed word.
func TestPrimeCountsNoCycle(t *testing.T) {
	b := NewAggregate(8)
	b.Prime(0xFF)
	if b.Cycles() != 0 || b.Transitions() != 0 {
		t.Errorf("prime counted work: cycles %d transitions %d", b.Cycles(), b.Transitions())
	}
	if n := b.Drive(0x0F); n != 4 {
		t.Errorf("first drive after prime toggled %d lines, want 4", n)
	}
	if b.Cycles() != 1 || b.Transitions() != 4 {
		t.Errorf("after drive: cycles %d transitions %d", b.Cycles(), b.Transitions())
	}
}

// TestMergeEmptyShard: merging a primed-but-never-driven bus is a
// statistics no-op apart from adopting the line state.
func TestMergeEmptyShard(t *testing.T) {
	lo := NewAggregate(16)
	lo.Accumulate([]uint64{1, 2, 3})
	hi := NewAggregate(16)
	hi.Prime(0xABC)
	lo.Merge(hi)
	if lo.Cycles() != 3 {
		t.Errorf("cycles = %d, want 3", lo.Cycles())
	}
	if lo.Current() != 0xABC {
		t.Errorf("line state %#x, want %#x", lo.Current(), uint64(0xABC))
	}
}

// TestMergeWidthMismatchPanics pins the misuse guard.
func TestMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merge of mismatched widths did not panic")
		}
	}()
	New(8).Merge(New(9))
}

// TestMergeSlots pins the ordered reduction's edge cases: empty and
// single-entry shards merge like any other, and slot counts beyond the
// in-process shard fan-out (>16) still reduce to the sequential
// statistics.
func TestMergeSlots(t *testing.T) {
	const width = 23
	words := randomWords(500, 11)

	// slotsFor cuts words at the given points (ascending, possibly
	// repeated for empty shards) and builds one primed accumulator per
	// shard, exactly as shard workers do.
	slotsFor := func(cuts []int) []*Bus {
		slots := make([]*Bus, 0, len(cuts)+1)
		prev := 0
		for i := 0; i <= len(cuts); i++ {
			end := len(words)
			if i < len(cuts) {
				end = cuts[i]
			}
			b := New(width)
			if prev > 0 {
				b.Prime(words[prev-1])
			}
			b.Accumulate(words[prev:end])
			slots = append(slots, b)
			prev = end
		}
		return slots
	}
	manyCuts := func(n int) []int {
		cuts := make([]int, n)
		for i := range cuts {
			cuts[i] = (i + 1) * len(words) / (n + 1)
		}
		return cuts
	}

	cases := []struct {
		name string
		cuts []int
	}{
		{name: "two shards", cuts: []int{250}},
		{name: "empty middle shard", cuts: []int{200, 200}},
		{name: "empty first shard", cuts: []int{0, 300}},
		{name: "single-entry shard", cuts: []int{100, 101}},
		{name: "25 slots", cuts: manyCuts(24)},
	}

	ref := New(width)
	ref.Accumulate(words)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := MergeSlots(slotsFor(tc.cuts))
			if err != nil {
				t.Fatalf("MergeSlots: %v", err)
			}
			if got.Transitions() != ref.Transitions() || got.Cycles() != ref.Cycles() ||
				got.MaxPerCycle() != ref.MaxPerCycle() || got.Current() != ref.Current() {
				t.Errorf("merged %d/%d/%d/%#x vs sequential %d/%d/%d/%#x",
					got.Transitions(), got.Cycles(), got.MaxPerCycle(), got.Current(),
					ref.Transitions(), ref.Cycles(), ref.MaxPerCycle(), ref.Current())
			}
			if !reflect.DeepEqual(got.PerLine(), ref.PerLine()) {
				t.Errorf("per-line counts diverge from sequential")
			}
		})
	}

	t.Run("empty input", func(t *testing.T) {
		if b, err := MergeSlots(nil); b != nil || err != nil {
			t.Errorf("MergeSlots(nil) = %v, %v; want nil, nil", b, err)
		}
	})
	t.Run("lost shard", func(t *testing.T) {
		slots := slotsFor([]int{250})
		slots[1] = nil
		if _, err := MergeSlots(slots); err == nil {
			t.Error("nil bus did not fail")
		}
	})
}

// TestStatsRoundTrip: a bus rebuilt from its Stats snapshot merges and
// keeps counting exactly like the original — the property the
// distributed sweep's wire transfer depends on.
func TestStatsRoundTrip(t *testing.T) {
	words := randomWords(400, 3)
	const width = 31
	for _, aggOnly := range []bool{false, true} {
		mk := New
		if aggOnly {
			mk = NewAggregate
		}
		ref := mk(width)
		ref.Accumulate(words)

		lo := mk(width)
		lo.Accumulate(words[:150])
		hi := mk(width)
		hi.Prime(words[149])
		hi.Accumulate(words[150:])

		rlo, err := FromStats(width, lo.Stats())
		if err != nil {
			t.Fatalf("FromStats(lo): %v", err)
		}
		rhi, err := FromStats(width, hi.Stats())
		if err != nil {
			t.Fatalf("FromStats(hi): %v", err)
		}
		rlo.Merge(rhi)
		if rlo.Transitions() != ref.Transitions() || rlo.Cycles() != ref.Cycles() ||
			rlo.MaxPerCycle() != ref.MaxPerCycle() || rlo.Current() != ref.Current() {
			t.Errorf("aggOnly=%v: rebuilt merge diverges from sequential", aggOnly)
		}
		if !reflect.DeepEqual(rlo.PerLine(), ref.PerLine()) {
			t.Errorf("aggOnly=%v: rebuilt per-line counts diverge", aggOnly)
		}
		// The rebuilt bus must also keep counting: drive one more word
		// on both and compare.
		ref.Drive(0x5A5A)
		rlo.Drive(0x5A5A)
		if rlo.Transitions() != ref.Transitions() || rlo.MaxPerCycle() != ref.MaxPerCycle() {
			t.Errorf("aggOnly=%v: rebuilt bus counts diverge after further drives", aggOnly)
		}
	}
	if _, err := FromStats(8, Stats{PerLine: make([]int64, 9)}); err == nil {
		t.Error("per-line width mismatch did not fail")
	}
}

// TestFromStatsRejects: a snapshot no bus of the width could have taken
// — the statistics a faulty peer or a doctored journal would hand the
// distributed merge — is refused with an error naming what is wrong,
// while the honest snapshots around it pass.
func TestFromStatsRejects(t *testing.T) {
	const width = 4
	honest := Stats{Transitions: 6, Cycles: 5, MaxPerCycle: 3, PerLine: []int64{1, 2, 0, 3}}
	edit := func(f func(*Stats)) Stats {
		st := honest
		st.PerLine = append([]int64(nil), honest.PerLine...)
		f(&st)
		return st
	}
	for _, tc := range []struct {
		name string
		st   Stats
		want string // "" for a snapshot that must pass
	}{
		{"honest", honest, ""},
		{"aggregate", edit(func(s *Stats) { s.PerLine = nil }), ""},
		{"max on every line", edit(func(s *Stats) { s.MaxPerCycle = width }), ""},
		{"empty", Stats{}, ""},
		{"empty per-line", Stats{PerLine: make([]int64, width)}, ""},
		{"negative transitions", edit(func(s *Stats) { s.Transitions, s.PerLine = -1, nil }), "negative count"},
		{"negative cycles", edit(func(s *Stats) { s.Cycles = -1 }), "negative count"},
		{"negative max", edit(func(s *Stats) { s.MaxPerCycle = -1 }), "negative count"},
		{"negative line", edit(func(s *Stats) { s.PerLine[1], s.PerLine[3] = -1, 6 }), "negative count -1 on line 1"},
		{"max above width", edit(func(s *Stats) { s.MaxPerCycle = width + 1 }), "5 transitions in one cycle on 4 lines"},
		{"per-line short", edit(func(s *Stats) { s.Transitions = 7 }), "do not sum to the 7 transitions"},
		{"per-line over", edit(func(s *Stats) { s.PerLine[0] = 2 }), "do not sum to the 6 transitions"},
		{"per-line wraps", edit(func(s *Stats) {
			s.Transitions = 0
			s.PerLine = []int64{1<<63 - 1, 1<<63 - 1, 2, 0}
		}), "do not sum to the 0 transitions"},
	} {
		_, err := FromStats(width, tc.st)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: honest snapshot refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
