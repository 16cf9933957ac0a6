package codec

import (
	"strings"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func TestOffsetSequentialIsConstant(t *testing.T) {
	c := MustNew("offset", 32, Options{})
	if c.BusWidth() != 32 {
		t.Fatalf("offset should be irredundant, BusWidth = %d", c.BusWidth())
	}
	syms := instrSyms(0x1000, 0x1004, 0x1008, 0x100C)
	words := drive(c, syms)
	// After the first word the bus carries the constant stride 4.
	for i := 1; i < len(words); i++ {
		if words[i] != 4 {
			t.Errorf("word %d = %#x, want 4", i, words[i])
		}
	}
	if total := bus.CountTransitions(words[1:], 32); total != 0 {
		t.Errorf("steady-state transitions = %d, want 0", total)
	}
}

func TestOffsetWrapAround(t *testing.T) {
	c := MustNew("offset", 16, Options{})
	enc := c.NewEncoder()
	dec := c.NewDecoder()
	for _, a := range []uint64{0xFFFF, 0x0001, 0x0000, 0xFFFF} {
		w := enc.Encode(Symbol{Addr: a})
		if got := dec.Decode(w, false); got != a {
			t.Errorf("decoded %#x, want %#x", got, a)
		}
	}
}

func TestWorkZoneHitPath(t *testing.T) {
	w, err := NewWorkZone(32, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if w.BusWidth() != 32+1+2 {
		t.Fatalf("BusWidth = %d, want 35", w.BusWidth())
	}
	enc := w.NewEncoder()
	dec := w.NewDecoder()
	// First access establishes a zone (miss), nearby accesses hit.
	addrs := []uint64{0x1000, 0x1004, 0x1010, 0x10FF, 0x1100}
	hitWant := []bool{false, true, true, true, true}
	for i, a := range addrs {
		word := enc.Encode(Symbol{Addr: a})
		hit := word&(1<<32) != 0
		if hit != hitWant[i] {
			t.Errorf("access %d (%#x): hit=%v, want %v", i, a, hit, hitWant[i])
		}
		if got := dec.Decode(word, false); got != a {
			t.Fatalf("access %d: decoded %#x, want %#x", i, got, a)
		}
	}
}

func TestWorkZoneLRUReplacement(t *testing.T) {
	w, err := NewWorkZone(32, 2, 4) // 2 zones of 16 bytes
	if err != nil {
		t.Fatal(err)
	}
	enc := w.NewEncoder()
	dec := w.NewDecoder()
	// Touch three distinct zones; the first must be evicted, so returning
	// to it is a miss — and the decode must still be exact throughout.
	addrs := []uint64{0x1000, 0x2000, 0x3000, 0x1000}
	for i, a := range addrs {
		word := enc.Encode(Symbol{Addr: a})
		if got := dec.Decode(word, false); got != a {
			t.Fatalf("access %d: decoded %#x, want %#x", i, got, a)
		}
		if i == 3 && word&(1<<32) != 0 {
			t.Error("evicted zone still hit")
		}
	}
}

func TestWorkZoneValidation(t *testing.T) {
	if _, err := NewWorkZone(32, 3, 8); err == nil {
		t.Error("non-power-of-two zone count accepted")
	}
	if _, err := NewWorkZone(32, 4, 0); err == nil {
		t.Error("zero zoneBits accepted")
	}
	if _, err := NewWorkZone(32, 4, 32); err == nil {
		t.Error("zoneBits == width accepted")
	}
	// The zone registers are capped: the bus check alone would let a
	// job spec ask for 2^31 zones at width 32.
	for _, zones := range []int{1 << 31, 2048} {
		if _, err := NewWorkZone(32, zones, 8); err == nil || !strings.Contains(err.Error(), "at most 1024") {
			t.Errorf("%d zones: err = %v, want the 1024 cap named", zones, err)
		}
	}
	for _, zones := range []int{128, maxZones} {
		if _, err := NewWorkZone(32, zones, 8); err != nil {
			t.Errorf("%d zones: %v", zones, err)
		}
	}
}

func TestWorkZoneBeatsBinaryOnZonedStream(t *testing.T) {
	// Two interleaved working zones far apart: binary pays the full
	// inter-zone Hamming distance every cycle; working-zone pays a few
	// offset bits.
	s := trace.New("zones", 32)
	for i := 0; i < 500; i++ {
		s.Append(0x10000000+uint64(i%64), trace.DataRead)
		s.Append(0x7FFF0000+uint64(i%64), trace.DataRead)
	}
	wz := MustRun(MustNew("workzone", 32, Options{Zones: 4, ZoneBits: 8}), s)
	bin := MustRun(MustNew("binary", 32, Options{}), s)
	if wz.Transitions*2 > bin.Transitions {
		t.Errorf("workzone %d vs binary %d: expected >50%% savings", wz.Transitions, bin.Transitions)
	}
}

func TestBeachDegeneratesWithoutTraining(t *testing.T) {
	b, err := NewBeach(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Pairs()) != 0 {
		t.Errorf("untrained Beach has %d pairs", len(b.Pairs()))
	}
	enc := b.NewEncoder()
	if w := enc.Encode(Symbol{Addr: 0x1234}); w != 0x1234 {
		t.Errorf("untrained Beach is not identity: %#x", w)
	}
}

func TestBeachLearnsCorrelatedLines(t *testing.T) {
	// Lines 0 and 1 always toggle together (addresses alternate between
	// 0b00 and 0b11 in the low bits); Beach should pair them.
	s := trace.New("corr", 8)
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			s.Append(0b00, trace.DataRead)
		} else {
			s.Append(0b11, trace.DataRead)
		}
	}
	b, err := NewBeach(8, s)
	if err != nil {
		t.Fatal(err)
	}
	pairs := b.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v, want exactly one", pairs)
	}
	p := pairs[0]
	if !(p.Src == 0 && p.Dst == 1 || p.Src == 1 && p.Dst == 0) {
		t.Errorf("paired lines %d->%d, want 0 and 1", p.Src, p.Dst)
	}
	// The transformed stream should halve the transitions (one of the two
	// correlated lines goes quiet).
	res := MustRun(b, s)
	bin := MustRun(MustNew("binary", 8, Options{}), s)
	if res.Transitions*2 != bin.Transitions {
		t.Errorf("beach %d vs binary %d: expected exactly half", res.Transitions, bin.Transitions)
	}
}

func TestBeachRoundTripOnTrainingAndOtherStreams(t *testing.T) {
	train := randomMixStream(32, 500, 41)
	b, err := NewBeach(32, train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(b, train); err != nil {
		t.Errorf("round trip on training stream: %v", err)
	}
	other := randomMixStream(32, 500, 42)
	if _, err := Run(b, other); err != nil {
		t.Errorf("round trip on unseen stream: %v", err)
	}
}

func TestBeachNeverHurtsItsTrainingStream(t *testing.T) {
	// The greedy selection only accepts positive-gain pairs, so on the
	// training stream itself the Beach transform must not increase
	// transitions.
	for seed := int64(0); seed < 5; seed++ {
		train := randomMixStream(32, 800, seed)
		b, err := NewBeach(32, train)
		if err != nil {
			t.Fatal(err)
		}
		res := MustRun(b, train)
		bin := MustRun(MustNew("binary", 32, Options{}), train)
		if res.Transitions > bin.Transitions {
			t.Errorf("seed %d: beach %d > binary %d on its own training stream", seed, res.Transitions, bin.Transitions)
		}
	}
}

func TestCouplingRanksCodesDifferently(t *testing.T) {
	// Under the coupling-dominated energy model the code ranking can
	// differ from the plain transition-count ranking; at minimum the
	// coupling analysis must agree with the toggle counts it embeds.
	s := randomMixStream(32, 4000, 77)
	for _, name := range []string{"binary", "gray", "t0", "businvert", "dualt0bi"} {
		c := MustNew(name, 32, Options{Stride: 4})
		st := Coupling(c, s)
		res := MustRun(c, s)
		if st.Toggles != res.Transitions {
			t.Errorf("%s: coupling toggles %d != transitions %d", name, st.Toggles, res.Transitions)
		}
		if st.Energy(0) != float64(res.Transitions) {
			t.Errorf("%s: lambda=0 energy mismatch", name)
		}
		if st.Energy(2) < st.Energy(0) {
			t.Errorf("%s: energy must grow with lambda", name)
		}
	}
}
