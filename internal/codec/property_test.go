package codec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"busenc/internal/trace"
)

// allCodecs instantiates every registered code at the given width with
// reasonable parameters, for cross-cutting property tests.
func allCodecs(t testing.TB, width int) []Codec {
	t.Helper()
	train := randomMixStream(width, 400, 99)
	zoneBits := 8
	if zoneBits >= width {
		zoneBits = width / 2
	}
	var out []Codec
	for _, name := range Names() {
		c, err := New(name, width, Options{Stride: 4, Train: train, ZoneBits: zoneBits})
		if err != nil {
			t.Fatalf("New(%s, %d): %v", name, width, err)
		}
		out = append(out, c)
	}
	return out
}

// randomMixStream generates a stream mixing sequential runs, random jumps
// and interleaved data accesses — adversarial input for round-trip tests.
func randomMixStream(width, n int, seed int64) *trace.Stream {
	rng := rand.New(rand.NewSource(seed))
	s := trace.New("mix", width)
	addr := rng.Uint64()
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // sequential instruction
			addr += 4
			s.Append(addr, trace.Instr)
		case 1: // instruction jump
			addr = rng.Uint64()
			s.Append(addr, trace.Instr)
		case 2:
			s.Append(rng.Uint64(), trace.DataRead)
		default:
			s.Append(rng.Uint64(), trace.DataWrite)
		}
	}
	return s
}

// TestRoundTripAllCodecs: Decode(Encode(x)) == x for every code on
// adversarial mixed streams, via the Run verifier.
func TestRoundTripAllCodecs(t *testing.T) {
	for _, width := range []int{8, 16, 32, 48} {
		for _, c := range allCodecs(t, width) {
			s := randomMixStream(width, 2000, int64(width))
			if _, err := Run(c, s); err != nil {
				t.Errorf("width %d: %v", width, err)
			}
		}
	}
}

// TestRoundTripQuick drives randomized (addr, sel) pairs one by one
// through paired encoder/decoder state machines.
func TestRoundTripQuick(t *testing.T) {
	const width = 32
	for _, c := range allCodecs(t, width) {
		c := c
		enc := c.NewEncoder()
		dec := c.NewDecoder()
		mask := uint64(1)<<width - 1
		f := func(addr uint64, sel bool) bool {
			w := enc.Encode(Symbol{Addr: addr, Sel: sel})
			return dec.Decode(w, sel) == addr&mask
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// TestRoundTripSequentialBias exercises the in-sequence paths heavily:
// quick's uniform addresses almost never trigger INC.
func TestRoundTripSequentialBias(t *testing.T) {
	for _, c := range allCodecs(t, 32) {
		enc := c.NewEncoder()
		dec := c.NewDecoder()
		rng := rand.New(rand.NewSource(5))
		addr := uint64(0x400000)
		for i := 0; i < 5000; i++ {
			sel := rng.Intn(3) > 0
			if rng.Intn(10) > 0 {
				addr += 4
			} else {
				addr = rng.Uint64() & 0xFFFFFFFF
			}
			w := enc.Encode(Symbol{Addr: addr, Sel: sel})
			if got := dec.Decode(w, sel); got != addr&0xFFFFFFFF {
				t.Fatalf("%s: step %d: decoded %#x, want %#x", c.Name(), i, got, addr)
			}
		}
	}
}

// TestResetRestoresInitialBehaviour: after Reset an encoder must emit the
// same words as a fresh instance.
func TestResetRestoresInitialBehaviour(t *testing.T) {
	syms := []Symbol{
		{Addr: 0x1000, Sel: true},
		{Addr: 0x1004, Sel: true},
		{Addr: 0xDEAD, Sel: false},
		{Addr: 0x1008, Sel: true},
	}
	for _, c := range allCodecs(t, 32) {
		enc := c.NewEncoder()
		first := make([]uint64, len(syms))
		for i, s := range syms {
			first[i] = enc.Encode(s)
		}
		enc.Reset()
		for i, s := range syms {
			if w := enc.Encode(s); w != first[i] {
				t.Errorf("%s: word %d after Reset = %#x, want %#x", c.Name(), i, w, first[i])
			}
		}
		dec := c.NewDecoder()
		dec.Reset() // Reset on a fresh decoder must be a no-op.
		for i, s := range syms {
			sel := s.Sel
			if got := dec.Decode(first[i], sel); got != s.Addr&0xFFFFFFFF {
				t.Errorf("%s: decode %d after encoder replay = %#x, want %#x", c.Name(), i, got, s.Addr)
			}
		}
	}
}

// TestRedundantLinesStayInBusWidth: encoders must never set bits at or
// above BusWidth.
func TestRedundantLinesStayInBusWidth(t *testing.T) {
	for _, c := range allCodecs(t, 32) {
		s := randomMixStream(32, 1000, 17)
		for i, w := range EncodeAll(c, s) {
			if c.BusWidth() < 64 && w>>uint(c.BusWidth()) != 0 {
				t.Errorf("%s: word %d = %#x uses lines above BusWidth %d", c.Name(), i, w, c.BusWidth())
			}
		}
	}
}

// TestBusWidthConsistency: BusWidth >= PayloadWidth always.
func TestBusWidthConsistency(t *testing.T) {
	for _, c := range allCodecs(t, 32) {
		if c.BusWidth() < c.PayloadWidth() {
			t.Errorf("%s: BusWidth %d < PayloadWidth %d", c.Name(), c.BusWidth(), c.PayloadWidth())
		}
		if c.PayloadWidth() != 32 {
			t.Errorf("%s: PayloadWidth = %d, want 32", c.Name(), c.PayloadWidth())
		}
	}
}

// TestT0ZeroTransitionInvariant (paper Section 2.2): on an unlimited
// in-sequence stream, T0-family codes asymptotically cost zero transitions
// per address.
func TestT0ZeroTransitionInvariant(t *testing.T) {
	for _, name := range []string{"t0", "t0bi", "dualt0", "dualt0bi"} {
		c := MustNew(name, 32, Options{Stride: 4})
		s := trace.New("seq", 32)
		for i := 0; i < 10000; i++ {
			s.Append(0x400000+4*uint64(i), trace.Instr)
		}
		res := MustRun(c, s)
		if res.Transitions > 2 {
			t.Errorf("%s: %d transitions on a pure sequential stream, want <= 2", name, res.Transitions)
		}
	}
}

// TestBIWorstCaseBound (Stan/Burleson): per-cycle transitions never exceed
// ceil((N+1)/2) for the classic bus-invert code.
func TestBIWorstCaseBound(t *testing.T) {
	const n = 16
	c := MustNew("businvert", n, Options{})
	s := randomMixStream(n, 5000, 23)
	res := MustRun(c, s)
	if res.MaxPerCycle > (n+2)/2 {
		t.Errorf("max per-cycle = %d, bound is %d", res.MaxPerCycle, (n+2)/2)
	}
}

// TestSavingsVsComputation checks the savings arithmetic.
func TestSavingsVsComputation(t *testing.T) {
	ref := Result{Transitions: 100}
	r := Result{Transitions: 64}
	if got := r.SavingsVs(ref); got != 0.36 {
		t.Errorf("SavingsVs = %v, want 0.36", got)
	}
	if got := r.SavingsVs(Result{}); got != 0 {
		t.Errorf("SavingsVs empty reference = %v, want 0", got)
	}
}

// TestRunDetectsBrokenCodec: Run must report a round-trip failure.
func TestRunDetectsBrokenCodec(t *testing.T) {
	s := randomMixStream(8, 10, 3)
	if _, err := Run(brokenCodec{}, s); err == nil {
		t.Error("Run accepted a codec whose decoder is wrong")
	}
}

type brokenCodec struct{}

func (brokenCodec) Name() string        { return "broken" }
func (brokenCodec) PayloadWidth() int   { return 8 }
func (brokenCodec) BusWidth() int       { return 8 }
func (brokenCodec) NewEncoder() Encoder { return brokenEnd{} }
func (brokenCodec) NewDecoder() Decoder { return brokenEnd{} }

type brokenEnd struct{}

func (brokenEnd) Encode(s Symbol) uint64         { return s.Addr & 0xFF }
func (brokenEnd) Decode(w uint64, _ bool) uint64 { return (w + 1) & 0xFF }
func (brokenEnd) Reset()                         {}
