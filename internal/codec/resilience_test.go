package codec

import (
	"testing"

	"busenc/internal/trace"
)

func resilienceStream() *trace.Stream {
	s := trace.New("res", 16)
	addr := uint64(0x1000)
	for i := 0; i < 400; i++ {
		if i%23 == 22 {
			addr = uint64(0x2000 + i*8)
		}
		addr += 4
		s.Append(addr, trace.Instr)
	}
	return s
}

func TestResilienceBinarySingleWord(t *testing.T) {
	// Binary is memoryless: one flipped bit corrupts exactly one word.
	s := resilienceStream()
	rep := Resilience(MustNew("binary", 16, Options{}), s, 50, 1)
	if rep.CorruptedWords != rep.Injections {
		t.Errorf("binary: %d corrupted words for %d injections, want equal", rep.CorruptedWords, rep.Injections)
	}
	if rep.MaxBurst != 1 {
		t.Errorf("binary burst = %d, want 1", rep.MaxBurst)
	}
}

func TestResilienceGrayAndBusInvertBounded(t *testing.T) {
	s := resilienceStream()
	for _, name := range []string{"gray", "businvert"} {
		rep := Resilience(MustNew(name, 16, Options{Stride: 4}), s, 50, 2)
		// Stateless decode: at most one wrong word per injection.
		if rep.MaxBurst > 1 {
			t.Errorf("%s burst = %d, want <= 1", name, rep.MaxBurst)
		}
	}
}

func TestResilienceT0Bursts(t *testing.T) {
	// T0's decoder holds the regenerated address: a fault during an
	// in-sequence run propagates until the next binary (out-of-sequence)
	// word resynchronizes it. Error bursts must therefore exceed
	// binary's single-word corruption.
	s := resilienceStream()
	rep := Resilience(MustNew("t0", 16, Options{Stride: 4}), s, 100, 3)
	if rep.MaxBurst <= 1 {
		t.Errorf("t0 max burst = %d; state-holding decoder should burst", rep.MaxBurst)
	}
	if rep.MeanBurst <= 1 {
		t.Errorf("t0 mean burst = %.2f, want > 1", rep.MeanBurst)
	}
}

func TestResilienceOffsetUnbounded(t *testing.T) {
	// The offset code accumulates deltas: a single fault offsets every
	// subsequent address until the end of the stream — the worst
	// resilience in the family, the price of its irredundancy.
	s := resilienceStream()
	off := Resilience(MustNew("offset", 16, Options{}), s, 50, 4)
	t0 := Resilience(MustNew("t0", 16, Options{Stride: 4}), s, 50, 4)
	if off.MeanBurst <= t0.MeanBurst {
		t.Errorf("offset mean burst %.1f should exceed t0's %.1f", off.MeanBurst, t0.MeanBurst)
	}
}

func TestResilienceAdaptiveRepeatingStream(t *testing.T) {
	// A loop over five addresses keeps the adaptive list full of hits,
	// so faults land on HIT words: a flipped low line can name no listed
	// entry, or one past the list. The campaign must complete and count
	// the wrong decodes instead of indexing past the decoder's list.
	s := trace.New("loop5", 16)
	for i := 0; i < 400; i++ {
		s.Append(uint64(0x1000+0x40*(i%5)), trace.DataRead)
	}
	rep := Resilience(MustNew("adaptive", 16, Options{Stride: 4}), s, 50, 1)
	if rep.Injections != 50 || rep.CorruptedWords == 0 || rep.MaxBurst == 0 {
		t.Errorf("adaptive on a repeating stream: %+v, want corrupted words counted", rep)
	}
}

func TestResilienceEmptyStream(t *testing.T) {
	s := trace.New("empty", 16)
	rep := Resilience(MustNew("binary", 16, Options{}), s, 10, 5)
	if rep.CorruptedWords != 0 || rep.MeanBurst != 0 {
		t.Errorf("empty stream report: %+v", rep)
	}
}

func TestResilienceNoFaultNoError(t *testing.T) {
	// Zero injections: the campaign is a no-op and reports cleanly.
	s := resilienceStream()
	rep := Resilience(MustNew("dualt0bi", 16, Options{Stride: 4}), s, 0, 6)
	if rep.CorruptedWords != 0 || rep.Injections != 0 {
		t.Errorf("report: %+v", rep)
	}
}
