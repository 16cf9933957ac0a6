package codec

import (
	"testing"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func TestAdaptiveRepeatIsFree(t *testing.T) {
	c := MustNew("adaptive", 32, Options{})
	if c.BusWidth() != 33 {
		t.Fatalf("BusWidth = %d", c.BusWidth())
	}
	// Re-referencing the same address: first a miss (raw), then hits at
	// index 0 forever — the bus freezes entirely after the second word.
	syms := make([]Symbol, 20)
	for i := range syms {
		syms[i] = Symbol{Addr: 0x12345678}
	}
	words := drive(c, syms)
	if words[0] != 0x12345678 {
		t.Fatalf("first word = %#x", words[0])
	}
	for i := 2; i < len(words); i++ {
		if words[i] != words[1] {
			t.Fatalf("word %d = %#x, bus should be frozen at %#x", i, words[i], words[1])
		}
	}
	if total := bus.CountTransitions(words[1:], 33); total != 0 {
		t.Errorf("steady-state transitions = %d", total)
	}
}

func TestAdaptiveAlternationCostsTwoLines(t *testing.T) {
	c := MustNew("adaptive", 32, Options{})
	enc := c.NewEncoder()
	a, b := Symbol{Addr: 0x1000}, Symbol{Addr: 0x7FFF0000}
	enc.Encode(a) // miss
	enc.Encode(b) // miss
	// Both now in the list; alternating references are one-hot swaps.
	w1 := enc.Encode(a)
	w2 := enc.Encode(b)
	w3 := enc.Encode(a)
	if bus.Hamming(w1, w2, 33) > 2 || bus.Hamming(w2, w3, 33) > 2 {
		t.Errorf("alternation cost: %d then %d transitions, want <= 2",
			bus.Hamming(w1, w2, 33), bus.Hamming(w2, w3, 33))
	}
}

func TestAdaptiveMTFEviction(t *testing.T) {
	c, err := NewAdaptive(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc := c.NewEncoder()
	dec := c.NewDecoder()
	// Touch three addresses with a 2-entry list; the first is evicted, so
	// returning to it is a miss. Decodes must stay exact throughout.
	for _, a := range []uint64{0x10, 0x20, 0x30, 0x10, 0x20} {
		w := enc.Encode(Symbol{Addr: a})
		if got := dec.Decode(w, false); got != a {
			t.Fatalf("decoded %#x, want %#x", got, a)
		}
	}
}

func TestAdaptiveDecodeCorruptHit(t *testing.T) {
	// A HIT word whose low lines are all zero names no list entry; on a
	// fresh decoder the list is empty besides. Only a faulty bus sends
	// one, and it must decode through the miss path, not panic.
	dec := MustNew("adaptive", 32, Options{}).NewDecoder()
	if got := dec.Decode(1<<32|0x12340000, false); got != 0x12340000 {
		t.Errorf("corrupt HIT word decoded as %#x, want its payload 0x12340000", got)
	}
}

func TestAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(16, 0); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := NewAdaptive(16, 17); err == nil {
		t.Error("more entries than payload lines accepted")
	}
	if _, err := New("adaptive", 64, Options{}); err == nil {
		t.Error("65-line bus accepted")
	}
}

func TestAdaptiveBeatsBinaryOnHotAddressStream(t *testing.T) {
	// A branch-target-like stream: a handful of hot addresses revisited
	// in a loop, with occasional cold misses.
	s := trace.New("hot", 32)
	hot := []uint64{0x00400100, 0x7FFF0040, 0x10008000, 0x0040FF00}
	for i := 0; i < 4000; i++ {
		if i%37 == 36 {
			s.Append(uint64(0x20000000)+uint64(i)*4, trace.DataRead)
			continue
		}
		s.Append(hot[i%len(hot)], trace.DataRead)
	}
	ad := MustRun(MustNew("adaptive", 32, Options{}), s)
	bin := MustRun(MustNew("binary", 32, Options{}), s)
	if ad.Transitions*3 > bin.Transitions {
		t.Errorf("adaptive %d vs binary %d: expected >66%% savings on hot-address streams", ad.Transitions, bin.Transitions)
	}
}
