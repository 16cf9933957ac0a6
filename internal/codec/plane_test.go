package codec

import (
	"math/rand"
	"reflect"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// planeTestStream builds a stream with the mixed shape the plane
// kernels must survive: sequential runs (stride 4), repeats, random
// jumps, and addresses with garbage above the payload width.
func planeTestStream(n int, seed int64) *trace.Stream {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]trace.Entry, n)
	addr := uint64(0x8000_1000)
	for i := range entries {
		switch rng.Intn(10) {
		case 0:
			addr = rng.Uint64() // full 64-bit garbage above the bus width
		case 1:
			// repeat: addr unchanged
		default:
			addr += 4
		}
		entries[i] = trace.Entry{Addr: addr}
	}
	return &trace.Stream{Name: "plane-test", Entries: entries}
}

// planeCodecs returns every registered codec that has a plane kernel,
// in a few width/stride configurations.
func planeCodecs(t testing.TB, width int) []Codec {
	t.Helper()
	cs := []Codec{
		MustNew("binary", width, Options{}),
		MustNew("gray", width, Options{}),
		MustNew("offset", width, Options{}),
		MustNew("incxor", width, Options{}),
	}
	if width > 3 {
		cs = append(cs,
			MustNew("gray", width, Options{Stride: 8}),
			MustNew("incxor", width, Options{Stride: 8}),
		)
	}
	for _, c := range cs {
		if !HasPlaneKernel(c) {
			t.Fatalf("codec %s: expected a plane kernel", c.Name())
		}
	}
	return cs
}

func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Transitions != want.Transitions || got.Cycles != want.Cycles || got.MaxPerCycle != want.MaxPerCycle {
		t.Errorf("%s: plane %d/%d/%d vs scalar %d/%d/%d",
			label, got.Transitions, got.Cycles, got.MaxPerCycle,
			want.Transitions, want.Cycles, want.MaxPerCycle)
	}
	if !reflect.DeepEqual(got.PerLine, want.PerLine) {
		t.Errorf("%s: per-line counts diverge\n plane: %v\nscalar: %v", label, got.PerLine, want.PerLine)
	}
}

// TestPlaneSetParity: the shared-transpose multi-codec sweep must be
// bit-identical to the scalar reference Run for every plane codec,
// across widths, stream lengths and consume chunkings.
func TestPlaneSetParity(t *testing.T) {
	for _, width := range []int{1, 2, 7, 13, 21, 32, 33, 48, 64} {
		for _, n := range []int{1, 2, 63, 64, 65, 127, 500, 4096, 4097} {
			s := planeTestStream(n, int64(width*100000+n))
			for _, chunkLen := range []int{1, 63, 64, 65, 1000, 4096} {
				if chunkLen > n && chunkLen != 4096 {
					continue
				}
				for _, perLine := range []bool{true, false} {
					codecs := planeCodecs(t, width)
					ps, err := NewPlaneSet(codecs, perLine)
					if err != nil {
						t.Fatal(err)
					}
					addrs := make([]uint64, n)
					for i, e := range s.Entries {
						addrs[i] = e.Addr
					}
					for lo := 0; lo < n; lo += chunkLen {
						hi := lo + chunkLen
						if hi > n {
							hi = n
						}
						ps.Consume(addrs[lo:hi])
					}
					for i, c := range codecs {
						want := MustRun(c, s)
						if !perLine {
							want.PerLine = nil
						}
						requireSameResult(t, c.Name()+"/plane-set", newResult(c, s.Name, ps.Bus(i)), want)
					}
				}
			}
		}
	}
}

// TestPlaneSetPrimed: mid-stream seeding (the entry point of a seeded
// plane group) must reproduce the suffix statistics of a sequential run.
func TestPlaneSetPrimed(t *testing.T) {
	const n, cut = 700, 333
	s := planeTestStream(n, 42)
	addrs := make([]uint64, n)
	for i, e := range s.Entries {
		addrs[i] = e.Addr
	}
	codecs := planeCodecs(t, 29)
	for i, c := range codecs {
		// Reference: a sequential scalar run over the suffix with a
		// seeded encoder and a primed bus — exactly what Pricer.Seed does.
		enc := c.NewEncoder()
		enc.(Seeder).SeedFrom(Symbol{Addr: addrs[cut-1]})
		boundary := enc.Encode(Symbol{Addr: addrs[cut]})
		ref := bus.New(c.BusWidth())
		ref.Prime(boundary)
		for _, a := range addrs[cut+1:] {
			ref.Drive(enc.Encode(Symbol{Addr: a}))
		}

		ps, err := NewPlaneSet([]Codec{c}, true)
		if err != nil {
			t.Fatal(err)
		}
		ps.Prime(addrs[cut], []uint64{boundary})
		ps.Consume(addrs[cut+1:])
		got := newResult(c, s.Name, ps.Bus(0))
		want := Result{
			Codec: c.Name(), Stream: s.Name, BusWidth: c.BusWidth(),
			Transitions: ref.Transitions(), Cycles: ref.Cycles(),
			PerLine: ref.PerLine(), MaxPerCycle: ref.MaxPerCycle(),
		}
		requireSameResult(t, c.Name()+"/primed", got, want)
		_ = i
	}
}

// TestNewPlaneSetRejectsScalarCodec: codecs without a plane kernel must
// be refused, not silently mispriced.
func TestNewPlaneSetRejectsScalarCodec(t *testing.T) {
	c := MustNew("t0", 16, Options{})
	if HasPlaneKernel(c) {
		t.Fatal("t0 unexpectedly grew a plane kernel; update this test")
	}
	if _, err := NewPlaneSet([]Codec{c}, false); err == nil {
		t.Fatal("NewPlaneSet accepted a codec without a plane kernel")
	}
}
