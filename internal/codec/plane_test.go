package codec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// planeTestStream builds a stream with the mixed shape the plane codecs
// (binary, gray, offset, incxor) must survive in the delta group:
// sequential runs (stride 4), repeats, random jumps, and addresses with
// garbage above the payload width.
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

// planeCodecs returns the plane codecs, the set RunPlaneSet is named
// for, in a few width/stride configurations.
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
		if !hasDeltaKernel(c) {
			t.Fatalf("codec %s: expected a delta group kernel", c.Name())
		}
	}
	return cs
}

func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Transitions != want.Transitions || got.Cycles != want.Cycles || got.MaxPerCycle != want.MaxPerCycle {
		t.Errorf("%s: group %d/%d/%d vs scalar %d/%d/%d",
			label, got.Transitions, got.Cycles, got.MaxPerCycle,
			want.Transitions, want.Cycles, want.MaxPerCycle)
	}
	if !reflect.DeepEqual(got.PerLine, want.PerLine) {
		t.Errorf("%s: per-line counts diverge\n group: %v\nscalar: %v", label, got.PerLine, want.PerLine)
	}
}

// TestPlaneSetParity: RunPlaneSet, and the delta groups it drives fed
// through Consume in chunks, must be bit-identical to the scalar
// reference Run for every plane codec, per line and in aggregate,
// across widths, stream lengths and consume chunkings.
func TestPlaneSetParity(t *testing.T) {
	for _, width := range []int{1, 2, 7, 13, 21, 32, 33, 48, 64} {
		codecs := planeCodecs(t, width)
		for _, n := range []int{1, 2, 63, 64, 65, 127, 500, 4096, 4097} {
			s := planeTestStream(n, int64(width*100000+n))
			s.Width = width
			for _, perLine := range []bool{true, false} {
				want := make([]Result, len(codecs))
				for i, c := range codecs {
					want[i] = MustRun(c, s)
					if !perLine {
						want[i].PerLine = nil
					}
				}
				opts := RunOpts{Verify: VerifyNone, PerLine: perLine}
				got, err := RunPlaneSet(codecs, s, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range codecs {
					requireSameResult(t, fmt.Sprintf("w%d/n%d/perline=%v/%s/RunPlaneSet", width, n, perLine, c.Name()), got[i], want[i])
				}
				for _, chunkLen := range []int{1, 63, 64, 65, 1000} {
					if chunkLen > n {
						continue
					}
					got, err := Collect(priceRange(t, codecs, s, 0, n, chunkLen, opts), s.Name)
					if err != nil {
						t.Fatal(err)
					}
					for i, c := range codecs {
						requireSameResult(t, fmt.Sprintf("w%d/n%d/perline=%v/chunk%d/%s", width, n, perLine, chunkLen, c.Name()), got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPlaneSetPrimed: mid-stream seeding must reproduce the suffix
// statistics, per line, of a sequential run, for each plane codec in a
// delta group of one and for the four in one group.
func TestPlaneSetPrimed(t *testing.T) {
	const n, cut = 700, 333
	s := planeTestStream(n, 42)
	codecs := planeCodecs(t, 29)
	want := make([]Result, len(codecs))
	for i, c := range codecs {
		// Reference: a sequential scalar run over the suffix with a
		// seeded encoder and a primed bus — exactly what Pricer.Seed does.
		enc := c.NewEncoder()
		enc.(Seeder).SeedFrom(SymbolOf(s.Entries[cut-1]))
		ref := bus.New(c.BusWidth())
		ref.Prime(enc.Encode(SymbolOf(s.Entries[cut])))
		for _, e := range s.Entries[cut+1:] {
			ref.Drive(enc.Encode(SymbolOf(e)))
		}
		want[i] = newResult(c, s.Name, ref)
	}
	opts := RunOpts{Verify: VerifySampled, PerLine: true}
	for i, c := range codecs {
		buses, err := CollectBuses(priceRange(t, []Codec{c}, s, cut+1, n, 100, opts))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, c.Name()+"/primed alone", newResult(c, s.Name, buses[0]), want[i])
	}
	buses, err := CollectBuses(priceRange(t, codecs[:4], s, cut+1, n, 100, opts))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codecs[:4] {
		requireSameResult(t, c.Name()+"/primed in the group", newResult(c, s.Name, buses[i]), want[i])
	}
}

// TestNewDeltaSetRejectsScalarCodec: a codec without a delta kernel, or
// of another width or stride than the group's, must be refused, not
// silently mispriced.
func TestNewDeltaSetRejectsScalarCodec(t *testing.T) {
	for _, tc := range []struct {
		codecs []Codec
		want   string
	}{
		{[]Codec{MustNew("t0", 16, Options{})}, "codec t0: no delta group kernel"},
		{[]Codec{MustNew("binary", 16, Options{}), MustNew("gray", 17, Options{})}, "codec gray: width or stride differs"},
		{[]Codec{MustNew("gray", 16, Options{}), MustNew("incxor", 16, Options{Stride: 4})}, "codec incxor: width or stride differs"},
	} {
		for _, perLine := range []bool{false, true} {
			if _, err := NewDeltaSet(tc.codecs, perLine); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("perline=%v: NewDeltaSet error %v, want %q", perLine, err, tc.want)
			}
		}
	}
}
