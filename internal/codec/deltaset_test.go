package codec

import (
	"fmt"
	"strings"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// deltaNames is every codec a DeltaSet can group.
var deltaNames = []string{"binary", "gray", "offset", "incxor", "businvert", "beach"}

// deltaMemberSets returns every set of two or more delta codec names,
// in deltaNames order within a set: 57 sets.
func deltaMemberSets() [][]string {
	var out [][]string
	for bits := 1; bits < 1<<len(deltaNames); bits++ {
		var set []string
		for i, name := range deltaNames {
			if bits&(1<<i) != 0 {
				set = append(set, name)
			}
		}
		if len(set) >= 2 {
			out = append(out, set)
		}
	}
	return out
}

// deltaCodecs builds the named codecs at width and stride, with beach
// trained on train; ok is false when the pairing is invalid for one of
// them (a Gray stride that fills the whole width).
func deltaCodecs(names []string, width int, stride uint64, train *trace.Stream) ([]Codec, bool) {
	out := make([]Codec, len(names))
	for i, name := range names {
		c, err := New(name, width, Options{Stride: stride, Train: train})
		if err != nil {
			return nil, false
		}
		out[i] = c
	}
	return out, true
}

// TestDeltaSetParity holds the delta group to codec.Run on every Result
// field and on the bus's last word, over widths 1 to 64, strides 1, 4
// and 64 (every pairing Gray takes), every member set of two to six
// codecs, chunk lengths around the 64-entry block and the 4096-entry
// batch, streams from the muxed reference to all, none and alternately
// in sequence, data first, wrapping at the width's top and carrying
// through every line (carryStream), and the sampled and absent verify
// budgets; beach is trained on the stream's head. Consume and
// ConsumeEntries alternate. The grid prices one goroutine's stream,
// where the race detector has nothing to find, so under it the grid
// keeps width 32 and stride 4 alone.
func TestDeltaSetParity(t *testing.T) {
	widths, strides := []int{1, 2, 31, 32, 63, 64}, []uint64{1, 4, 64}
	if raceEnabled {
		widths, strides = []int{32}, []uint64{4}
	}
	sets := deltaMemberSets()
	for _, width := range widths {
		for _, stride := range strides {
			streams := append(seqStreams(width, stride), carryStream(width, stride, 4200))
			for _, full := range streams {
				train := full.Slice(0, 1000)
				for _, s := range []*trace.Stream{full.Slice(0, seqShortLen), full} {
					chunkLens := []int{1, 63, 64, 65}
					if s == full {
						chunkLens = []int{4096, 4097}
					}
					deltaParity(t, fmt.Sprintf("w%d/s%d/%s/n%d", width, stride, s.Name, s.Len()), s, width, stride, train, sets, chunkLens)
				}
			}
		}
	}
}

// carryStream is n entries of instruction runs in sequence at stride,
// each starting three strides below 2^k * stride, for k = 1 up to the
// payload width and over again: run k carries into line k past the
// stride, so the runs reach past half of a bus-invert partition, onto
// its tie at odd widths, and at the last k wrap the payload's top
// mid-run. Runs of 40 to 149 lanes cross 64-lane blocks and the
// parity grid's chunks.
func carryStream(width int, stride uint64, n int) *trace.Stream {
	s := trace.New("carries", width)
	for len(s.Entries) < n {
		for k := 1; k <= width; k++ {
			a := (uint64(1)<<uint(k) - 3) * stride
			for j := 0; j < 40+k*53%110; j++ {
				s.Append(a, trace.Instr)
				a += stride
			}
		}
	}
	s.Entries = s.Entries[:n]
	return s
}

// deltaParity runs TestDeltaSetParity's grid over one stream.
func deltaParity(t *testing.T, prefix string, s *trace.Stream, width int, stride uint64, train *trace.Stream, sets [][]string, chunkLens []int) {
	t.Helper()
	want := map[string]Result{}
	last := map[string]uint64{}
	for _, name := range deltaNames {
		cs, ok := deltaCodecs([]string{name}, width, stride, train)
		if !ok {
			continue
		}
		r, err := Run(cs[0], s)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = r
		enc := cs[0].NewEncoder()
		for _, e := range s.Entries {
			last[name] = enc.Encode(SymbolOf(e))
		}
	}
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	combo := 0
	for _, set := range sets {
		codecs, ok := deltaCodecs(set, width, stride, train)
		if !ok {
			continue
		}
		for _, chunkLen := range chunkLens {
			for _, verify := range []VerifyMode{VerifySampled, VerifyNone} {
				combo++
				label := fmt.Sprintf("%s/%s/chunk%d/verify%d", prefix, strings.Join(set, "+"), chunkLen, verify)
				p := deltaGroupPricer(t, label, codecs, RunOpts{Verify: verify})
				for base := 0; base < s.Len(); base += chunkLen {
					end := min(base+chunkLen, s.Len())
					var err error
					if combo%2 == 0 {
						err = p.ConsumeEntries(s.Entries[base:end])
					} else {
						err = p.Consume(addrs[base:end], kinds[base:end])
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				got, err := Collect([]*Pricer{p}, s.Name)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i, name := range set {
					w := want[name]
					if got[i].Codec != w.Codec || got[i].Stream != w.Stream || got[i].BusWidth != w.BusWidth {
						t.Fatalf("%s: result %d is %s/%s/%d lines, want %s/%s/%d", label, i,
							got[i].Codec, got[i].Stream, got[i].BusWidth, w.Codec, w.Stream, w.BusWidth)
					}
					sameResult(t, label+"/"+name, got[i], w, false)
					if cur := p.ds.Bus(i).Current(); cur != last[name] {
						t.Fatalf("%s/%s: bus ends on %#x, Encode's last word is %#x", label, name, cur, last[name])
					}
				}
			}
		}
	}
}

// deltaGroupPricer builds the one Pricer NewPricers groups codecs into,
// failing unless it is a delta group.
func deltaGroupPricer(t testing.TB, label string, codecs []Codec, opts RunOpts) *Pricer {
	t.Helper()
	ps, err := NewPricers(codecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].ds == nil {
		t.Fatalf("%s: NewPricers built %d Pricers, want one delta group", label, len(ps))
	}
	return ps[0]
}

// TestNewPricersRoutesDeltaGroup: NewPricers groups two or more delta
// codecs of one payload width and stride (a codec without a stride
// joins any) under KernelAuto, short of VerifyFull, with PerLine off,
// first of all Pricers; per-line requests, KernelPlane, KernelScalar,
// VerifyFull and a lone delta codec keep today's kernels.
func TestNewPricersRoutesDeltaGroup(t *testing.T) {
	all := allCodecs(t, 32)
	mk := func(name string, width int, stride uint64) Codec {
		return MustNew(name, width, Options{Stride: stride})
	}
	bin, gray, off, ixor := mk("binary", 32, 4), mk("gray", 32, 4), mk("offset", 32, 4), mk("incxor", 32, 4)
	bi, t0 := mk("businvert", 32, 4), mk("t0", 32, 4)
	type pricer struct {
		name   string
		kernel string // "delta", "plane", "seq" or "batch"
	}
	for _, tc := range []struct {
		name   string
		codecs []Codec
		opts   RunOpts
		want   []pricer
	}{
		{"all codecs", all, RunOpts{Verify: VerifySampled}, []pricer{
			{"beach+binary+businvert+gray+incxor+offset", "delta"},
			{"dualt0+dualt0bi+t0+t0bi", "seq"},
			{"adaptive", "batch"}, {"workzone", "batch"},
		}},
		{"verify none", []Codec{t0, bi, gray}, RunOpts{Verify: VerifyNone}, []pricer{{"businvert+gray", "delta"}, {"t0", "batch"}}},
		{"per line", all, RunOpts{Verify: VerifySampled, PerLine: true}, []pricer{
			{"binary+gray+incxor+offset", "plane"},
			{"dualt0+dualt0bi+t0+t0bi", "seq"},
			{"adaptive", "batch"}, {"beach", "batch"}, {"businvert", "batch"}, {"workzone", "batch"},
		}},
		{"plane kernel", []Codec{bin, gray, off, ixor}, RunOpts{Kernel: KernelPlane, Verify: VerifySampled}, []pricer{{"binary+gray+offset+incxor", "plane"}}},
		{"scalar kernel", []Codec{bin, bi}, RunOpts{Kernel: KernelScalar, Verify: VerifyNone}, []pricer{{"binary", "batch"}, {"businvert", "batch"}}},
		{"verify full", []Codec{bin, gray, bi}, RunOpts{}, []pricer{{"binary", "batch"}, {"gray", "batch"}, {"businvert", "batch"}}},
		{"lone plane codec", []Codec{t0, gray}, RunOpts{Verify: VerifySampled}, []pricer{{"gray", "plane"}, {"t0", "batch"}}},
		{"lone businvert", []Codec{bi, t0}, RunOpts{Verify: VerifySampled}, []pricer{{"businvert", "batch"}, {"t0", "batch"}}},
		{"width and stride", []Codec{mk("gray", 32, 4), mk("incxor", 32, 8), bin, mk("offset", 16, 1), mk("gray", 32, 8), mk("beach", 16, 1)}, RunOpts{Verify: VerifyNone}, []pricer{
			{"gray+binary", "delta"}, {"incxor+gray", "delta"}, {"offset+beach", "delta"},
		}},
		{"a lone member keeps the plane", []Codec{mk("gray", 32, 4), mk("incxor", 32, 8), mk("binary", 16, 1)}, RunOpts{Verify: VerifyNone}, []pricer{
			{"gray+incxor+binary", "plane"},
		}},
	} {
		ps, err := NewPricers(tc.codecs, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []pricer
		for _, p := range ps {
			k := "batch"
			switch {
			case p.ds != nil:
				k = "delta"
			case p.ps != nil:
				k = "plane"
			case p.ss != nil:
				k = "seq"
			}
			got = append(got, pricer{p.Name(), k})
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: Pricers %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDeltaSetConsumeAllocs: after warm-up the group allocates nothing
// per Consume.
func TestDeltaSetConsumeAllocs(t *testing.T) {
	s := seqMuxedOnce()
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	codecs, _ := deltaCodecs(deltaNames, 32, 4, s.Slice(0, 1000))
	p := deltaGroupPricer(t, "allocs", codecs, RunOpts{Verify: VerifySampled})
	if err := p.Consume(addrs[:2048], kinds[:2048]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := p.Consume(addrs[2048:4096], kinds[2048:4096]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%.1f allocations per Consume, want 0", n)
	}
}

// TestDeltaSetSeed: a group of Seeder codecs joins the stream at any
// entry, as a dist entry shard seeds it, inside an in-sequence run too,
// and its two halves merge to Run's result; a group holding bus-invert
// joins only at entry 0 and past it Seed names the group and refuses.
func TestDeltaSetSeed(t *testing.T) {
	s := randomMixStream(32, 3000, 3)
	seeders, _ := deltaCodecs([]string{"binary", "gray", "offset", "incxor", "beach"}, 32, 4, s.Slice(0, 500))
	for _, cut := range []int{1, 2, 64, 1000, 2999} {
		sides := make([][]*bus.Bus, len(seeders))
		for _, rg := range [][2]int{{0, cut}, {cut, s.Len()}} {
			buses, err := CollectBuses(priceRange(t, seeders, s, rg[0], rg[1], 100, RunOpts{Verify: VerifySampled}))
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range buses {
				sides[i] = append(sides[i], b)
			}
		}
		for i, c := range seeders {
			merged, err := bus.MergeSlots(sides[i])
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("cut %d/%s", cut, c.Name()), newResult(c, s.Name, merged), MustRun(c, s), false)
		}
	}
	// Cuts inside runs: the entry before the cut is in sequence, so the
	// group must not carry that over its Prime (offset's and INC-XOR's
	// word there is the seeded one, not S and 0), and the runs' carries
	// reach every line.
	runs := carryStream(32, 4, 3000)
	var inside []int
	for i := 2; i < runs.Len(); i++ {
		a := runs.Entries
		if a[i].Addr == a[i-1].Addr+4 && a[i-1].Addr == a[i-2].Addr+4 && (i%700 == 0 || i%64 == 0 && i%5 == 0) {
			inside = append(inside, i)
		}
	}
	if len(inside) < 4 {
		t.Fatalf("%d cuts inside runs, want at least 4", len(inside))
	}
	for _, cut := range inside {
		sides := make([][]*bus.Bus, len(seeders))
		for _, rg := range [][2]int{{0, cut}, {cut, runs.Len()}} {
			buses, err := CollectBuses(priceRange(t, seeders, runs, rg[0], rg[1], 100, RunOpts{Verify: VerifySampled}))
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range buses {
				sides[i] = append(sides[i], b)
			}
		}
		for i, c := range seeders {
			merged, err := bus.MergeSlots(sides[i])
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("run cut %d/%s", cut, c.Name()), newResult(c, runs.Name, merged), MustRun(c, runs), false)
		}
	}
	codecs, _ := deltaCodecs([]string{"binary", "businvert"}, 32, 4, nil)
	p := deltaGroupPricer(t, "seed", codecs, RunOpts{Verify: VerifySampled})
	if err := p.Seed(Boundary{First: true}); err != nil {
		t.Fatalf("Seed(First) = %v", err)
	}
	q := deltaGroupPricer(t, "seed", codecs, RunOpts{Verify: VerifyNone})
	bd := Boundary{Prev: s.Entries[99], SeedSym: SymbolOf(s.Entries[98]), HaveSeedSym: true, Base: 100}
	want := "codec binary+businvert: a delta group with a prefix-dependent codec prices from entry 0 only"
	if err := q.Seed(bd); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Seed past entry 0 = %v, want %q", err, want)
	}
}

// BenchmarkDeltaSet times every member set's group against its
// members' kernels today: the plane group for the plane codecs and the
// batch kernels plus bus.Accumulate for bus-invert and beach, on a
// 2^20-entry muxed stream in 4096-entry chunks, without verification.
// busencbench's per-codec encode metric times RunFast, which never
// builds a group, so only this benchmark attributes the group's gain.
func BenchmarkDeltaSet(b *testing.B) {
	s := seqMuxed(1 << 20)
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	perEntry := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(addrs)), "ns/entry")
	}
	for _, set := range deltaMemberSets() {
		codecs, _ := deltaCodecs(set, 32, 4, nil)
		var planes, scalars []Codec
		for _, c := range codecs {
			if HasPlaneKernel(c) {
				planes = append(planes, c)
			} else {
				scalars = append(scalars, c)
			}
		}
		name := strings.Join(set, "+")
		b.Run(name+"/group", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := NewDeltaSet(codecs)
				if err != nil {
					b.Fatal(err)
				}
				for base := 0; base < len(addrs); base += runChunk {
					ds.Consume(addrs[base:base+runChunk], kinds[base:base+runChunk])
				}
			}
			perEntry(b)
		})
		b.Run(name+"/today", func(b *testing.B) {
			words := make([]uint64, runChunk)
			for i := 0; i < b.N; i++ {
				if len(planes) > 0 {
					ps, err := NewPlaneSet(planes, false)
					if err != nil {
						b.Fatal(err)
					}
					for base := 0; base < len(addrs); base += runChunk {
						ps.Consume(addrs[base : base+runChunk])
					}
				}
				for _, c := range scalars {
					be := AsBatch(c.NewEncoder())
					bs := bus.NewAggregate(c.BusWidth())
					for base := 0; base < len(addrs); base += runChunk {
						be.EncodeBatch(addrs[base:base+runChunk], kinds[base:base+runChunk], words)
						bs.Accumulate(words)
					}
				}
			}
			perEntry(b)
		})
	}
}
