package codec

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// sameResult compares every statistic the pricing paths must agree on:
// the per-line counts when perLine requested them, and otherwise that
// there are none.
func sameResult(t *testing.T, label string, got, want Result, perLine bool) {
	t.Helper()
	if got.Transitions != want.Transitions || got.Cycles != want.Cycles || got.MaxPerCycle != want.MaxPerCycle {
		t.Fatalf("%s: got %d/%d/%d, want %d/%d/%d", label,
			got.Transitions, got.Cycles, got.MaxPerCycle,
			want.Transitions, want.Cycles, want.MaxPerCycle)
	}
	if !perLine {
		if got.PerLine != nil {
			t.Fatalf("%s: per-line counts %v, none requested", label, got.PerLine)
		}
		return
	}
	if !reflect.DeepEqual(got.PerLine, want.PerLine) {
		t.Fatalf("%s: per-line counts diverge\n got: %v\nwant: %v", label, got.PerLine, want.PerLine)
	}
}

// priceFrom prices entries on a fresh Pricer for c seeded at bd, the
// way a worker prices a shard, and returns its counting bus for the
// ordered reduction (bus.MergeSlots).
func priceFrom(c Codec, bd Boundary, entries []trace.Entry, opts RunOpts) (*bus.Bus, error) {
	p, err := NewPricer(c, opts)
	if err != nil {
		return nil, err
	}
	if err := p.Seed(bd); err != nil {
		return nil, err
	}
	if err := p.ConsumeEntries(entries); err != nil {
		return nil, err
	}
	buses, err := CollectBuses([]*Pricer{p})
	if err != nil {
		return nil, err
	}
	return buses[0], nil
}

// TestPricerSeedRejectsMismatchedState: a boundary state of the wrong
// type, or with registers of the wrong size, must come back from
// Pricer.Seed as an error naming the problem, never as a panic or a
// half-restored encoder.
func TestPricerSeedRejectsMismatchedState(t *testing.T) {
	s := randomMixStream(32, 600, 5)
	for _, tc := range []struct {
		code string
		st   State
		want string
	}{
		{"t0", biState{prev: 0x1234}, "codec t0: boundary state is biState, want t0State"},
		{"businvert", t0State{prevAddr: 8, valid: true}, "codec businvert: boundary state is t0State, want biState"},
		{"binary", biState{prev: 1}, "codec binary: boundary state is biState, want no state"},
		{"workzone", wzState{regs: []uint64{1}, age: []int{0}}, "codec workzone: boundary state registers do not fit"},
		{"adaptive", adaptiveState{list: make([]uint64, 17)}, "codec adaptive: boundary state registers do not fit"},
	} {
		p, err := NewPricer(MustNew(tc.code, 32, Options{Stride: 4}), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		bd := Boundary{Prev: s.Entries[99], SeedSym: SymbolOf(s.Entries[98]), HaveSeedSym: true, State: tc.st, Base: 100}
		if err := p.Seed(bd); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.code, err, tc.want)
		}
	}
}

// TestPricerBatchShapes drives every working-zone and adaptive shape of
// batchCases through NewPricer under KernelAuto, with sampled and with
// no verification, fed through Consume in chunks of 1, 7, 777, 4096
// and 4097 entries: working-zone counts without writing a word there,
// adaptive encodes and counts its words. A restored state is seeded
// through Pricer.Seed with the stream's first entry as the one before
// the cut. The Result must equal the scalar encoder's driven onto a
// bus (codec.Run's, for a fresh encoder), and the Pricer's encoder must
// end in the scalar encoder's Snapshot.
func TestPricerBatchShapes(t *testing.T) {
	muxed := fixtureStreams(8192)[2]
	streams := []*trace.Stream{muxed, hotSetStream(2 * (runChunk + 3500)), zoneRunStream(12000)}
	chunkLens := []int{1, 7, 777, runChunk, runChunk + 1}
	for _, tc := range batchCases(t, muxed.Slice(0, 1000)) {
		if name := tc.c.Name(); name != "workzone" && name != "adaptive" {
			continue
		}
		for _, s := range streams {
			bd, entries := Boundary{First: true}, s.Entries
			if tc.restore != nil {
				bd, entries = Boundary{Prev: s.Entries[0], State: tc.restore, Base: 1}, s.Entries[1:]
			}
			want, wantState := scalarFrom(t, tc.c, bd, s.Name, entries)
			if tc.restore == nil {
				sameResult(t, tc.label+"/"+s.Name+"/scalar", want, MustRun(tc.c, s), false)
			}
			addrs := make([]uint64, len(entries))
			kinds := make([]trace.Kind, len(entries))
			for i, e := range entries {
				addrs[i], kinds[i] = e.Addr, e.Kind
			}
			for _, verify := range []VerifyMode{VerifySampled, VerifyNone} {
				for _, n := range chunkLens {
					label := fmt.Sprintf("%s/%s/verify=%d/chunk=%d", tc.label, s.Name, verify, n)
					p, err := NewPricer(tc.c, RunOpts{Verify: verify})
					if err != nil {
						t.Fatal(err)
					}
					if err := p.Seed(bd); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for lo := 0; lo < len(addrs); lo += n {
						hi := min(lo+n, len(addrs))
						if err := p.Consume(addrs[lo:hi], kinds[lo:hi]); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					sameResult(t, label, p.Result(s.Name), want, false)
					if got := p.enc.(StateCodec).Snapshot(); !reflect.DeepEqual(got, wantState) {
						t.Fatalf("%s: final state %+v, scalar %+v", label, got, wantState)
					}
				}
			}
		}
	}
}

// scalarFrom prices entries through c's scalar Encode onto an
// aggregate bus, starting where a Pricer seeded at bd starts: fresh, or
// from bd.State with the bus primed by bd.Prev's word. It returns the
// Result and the encoder's final Snapshot.
func scalarFrom(t *testing.T, c Codec, bd Boundary, stream string, entries []trace.Entry) (Result, State) {
	t.Helper()
	enc := c.NewEncoder()
	sc, ok := enc.(StateCodec)
	if !ok {
		t.Fatalf("codec %s: no StateCodec", c.Name())
	}
	b := bus.NewAggregate(c.BusWidth())
	if !bd.First {
		sc.Restore(bd.State)
		b.Prime(enc.Encode(SymbolOf(bd.Prev)))
	}
	for _, e := range entries {
		b.Drive(enc.Encode(SymbolOf(e)))
	}
	return newResult(c, stream, b), sc.Snapshot()
}

// TestPricerCountsWithoutAllocating: a working-zone Pricer under
// KernelAuto counts without words, so it holds no word-writing kernel
// and takes no word buffer, and once warm a Consume allocates nothing.
func TestPricerCountsWithoutAllocating(t *testing.T) {
	s := hotSetStream(2 * runChunk)
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	for _, verify := range []VerifyMode{VerifySampled, VerifyNone} {
		p, err := NewPricer(MustNew("workzone", 32, Options{}), RunOpts{Verify: verify})
		if err != nil {
			t.Fatal(err)
		}
		if p.wz == nil || p.be != nil {
			t.Fatalf("verify=%d: the Pricer writes words", verify)
		}
		if err := p.Consume(addrs[:runChunk], kinds[:runChunk]); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := p.Consume(addrs[runChunk:], kinds[runChunk:]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("verify=%d: %.1f allocations per Consume, want 0", verify, n)
		}
	}
}

// failAfter is a binary code whose decoder goes wrong at entry at, so
// tests can place a mismatch anywhere in the stream. It keeps binary's
// delta group kernel.
type failAfter struct {
	*Binary
	name string
	at   int
}

func (f failAfter) Name() string { return f.name }
func (f failAfter) NewDecoder() Decoder {
	return &failingDecoder{Decoder: f.Binary.NewDecoder(), left: f.at}
}

type failingDecoder struct {
	Decoder
	left int
}

func (d *failingDecoder) Decode(word uint64, sel bool) uint64 {
	if d.left == 0 {
		return ^d.Decoder.Decode(word, sel)
	}
	d.left--
	return d.Decoder.Decode(word, sel)
}

// TestCollectReportsFirstFailureInListOrder: a delta group, in
// aggregate and per line, keeps verifying its other codecs after one
// fails, so the reported failure is the first failing codec in list
// order, as separate Pricers would report it, not the first mismatch in
// stream order.
func TestCollectReportsFirstFailureInListOrder(t *testing.T) {
	s := planeTestStream(3000, 11)
	bin, err := NewBinary(32)
	if err != nil {
		t.Fatal(err)
	}
	codecs := []Codec{MustNew("t0", 32, Options{Stride: 4}), failAfter{bin, "late", 700}, failAfter{bin, "early", 30}}
	for _, perLine := range []bool{false, true} {
		ps, err := NewPricers(codecs, RunOpts{Verify: VerifySampled, PerLine: perLine})
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != 2 {
			t.Fatalf("perline=%v: %d Pricers, want the group and t0", perLine, len(ps))
		}
		failed := make([]bool, len(ps))
		for base := 0; base < s.Len(); base += 64 {
			for k, p := range ps {
				if !failed[k] {
					failed[k] = p.ConsumeEntries(s.Entries[base:min(base+64, s.Len())]) != nil
				}
			}
		}
		_, err = Collect(ps, s.Name)
		if want := "codec late: round-trip mismatch at entry 700"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("perline=%v: Collect error = %v, want %q", perLine, err, want)
		}
	}
}

// fuzzStream decodes fuzzer bytes into a stream with the regimes the
// codecs react to: in-sequence runs, repeats, jumps, data accesses and
// garbage above the payload width. A jump byte with bits 3 and 4 set
// lands a few strides below 2^31 or 2^32 (bit 5), so a run after it
// carries through a 31- or 32-bit payload and wraps it.
func fuzzStream(data []byte) *trace.Stream {
	s := trace.New("fuzz", 32)
	addr := uint64(0x0040_0000)
	for i, b := range data {
		kind := trace.Instr
		switch b & 7 {
		case 0, 1, 2:
			addr += 4
		case 3:
			// repeat
		case 4:
			addr = uint64(b)<<10 ^ uint64(i)<<3
			if b&0x18 == 0x18 {
				addr = uint64(1)<<(31+b>>5&1) - 4*uint64(1+b>>6)
			}
		case 5:
			addr ^= uint64(b) << 40
		case 6:
			kind = trace.DataRead
		default:
			kind = trace.DataWrite
		}
		if kind == trace.Instr {
			s.Append(addr, kind)
		} else {
			s.Append(0x1000_0000+uint64(b)*0x104, kind)
		}
	}
	return s
}

// FuzzPricingPaths is the differential target over every pricing path:
// for the fuzzer's codec, stream, chunk length, shard cut, kernel and
// verify mode, RunFast, a one-codec Pricer fed chunk by chunk through
// Consume (runStream) and a cut priced from swept boundary states must
// all equal the reference Run. The cut chain is sweepStates, then
// NewPricer + Seed with Boundary.State + ConsumeEntries on each side
// (priceFrom), merged with bus.MergeSlots; it reaches every codec,
// prefix-dependent ones included, a lone delta codec's delta group of
// one among them. So must, for the fuzzer's codec set (a bit mask over
// the registered codecs, 0 for all of them), the NewPricers grouping
// fed chunk by chunk through Consume, RunPlaneSet over the set, and the
// distributed worker's composition over the set's Seeder codecs:
// NewPricers + Seed + Consume on each side of the cut, merged with
// bus.MergeSlots; a group holding a prefix-dependent codec must refuse
// that cut. Every path counts per line or in aggregate as the fuzzer's
// perLine says. The fuzzer's shape picks the codecs' width, stride and
// bus-invert partitions (fuzzShapes).
func FuzzPricingPaths(f *testing.F) {
	shapes := fuzzShapes()
	codecs := shapes[0]
	var t0Family, deltas, seeders uint16
	invert := 0
	for i, c := range codecs {
		if b, ok := c.(*Beach); ok && len(b.Pairs()) == 0 {
			f.Fatal("beach: training selected no pairs; the trained delta kernel is not fuzzed")
		}
		stream := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0x80, 0xf4, 0x33, 0x41}
		for j := 0; j < 40*i; j++ {
			stream = append(stream, byte(j*29+i))
		}
		f.Add(uint8(i), stream, uint16(i+1), uint16(3*i), uint8(i), uint8(i/3), uint16(0), true, uint8(0))
		if hasSeqKernel(c) {
			t0Family |= 1 << i
		}
		if hasDeltaKernel(c) {
			deltas |= 1 << i
		}
		if _, ok := c.NewEncoder().(Seeder); ok {
			seeders |= 1 << i
		}
		if c.Name() == "businvert" {
			invert = i
		}
	}
	stream := make([]byte, 300)
	for j := range stream {
		stream[j] = byte(j*37 + 5)
	}
	// The delta group per line: the whole set, then its Seeder codecs
	// seeded at a cut mid-block.
	f.Add(uint8(0), stream, uint16(63), uint16(100), uint8(KernelAuto), uint8(VerifySampled), deltas, true, uint8(0))
	f.Add(uint8(1), stream, uint16(50), uint16(130), uint8(KernelAuto), uint8(VerifySampled), deltas&seeders, true, uint8(0))
	// The T0 family's group, counting in aggregate and per line, in
	// 40-entry chunks that split the 64-entry blocks.
	f.Add(uint8(2), stream, uint16(39), uint16(70), uint8(KernelAuto), uint8(VerifySampled), t0Family, false, uint8(0))
	f.Add(uint8(3), stream, uint16(39), uint16(70), uint8(KernelAuto), uint8(VerifyNone), t0Family, true, uint8(0))
	// A stream that opens with data entries, so the dual codes start
	// with no reference address.
	dataFirst := append(bytes.Repeat([]byte{6, 7, 0x0e, 0x17}, 20), stream...)
	f.Add(uint8(4), dataFirst, uint16(100), uint16(33), uint8(KernelAuto), uint8(VerifySampled), t0Family, false, uint8(0))
	// The delta group in every shape, in aggregate and per line: trained
	// beach; odd widths, where bus-invert's tie 2b = N+1 falls; width 64;
	// a stride that leaves Gray one line; bus-invert in 3 and 4
	// partitions. Then its Seeder codecs seeded at a cut mid-block, and
	// bus-invert with binary, a group that must refuse the cut.
	for shape := range shapes {
		f.Add(uint8(5), stream, uint16(45), uint16(77), uint8(KernelAuto), uint8(VerifySampled), uint16(0), false, uint8(shape))
		f.Add(uint8(5), stream, uint16(45), uint16(77), uint8(KernelAuto), uint8(VerifySampled), uint16(0), true, uint8(shape))
	}
	binaryInvert := uint16(0)
	for i, c := range codecs {
		if c.Name() == "binary" || c.Name() == "businvert" {
			binaryInvert |= 1 << i
		}
	}
	// Runs through the tops of 31- and 32-bit payloads, for the delta
	// group in every shape, in aggregate and per line: a jump below
	// 2^31, 40 in-sequence entries, a jump below 2^32, 40 more.
	carries := append(append(append([]byte{0x1c}, bytes.Repeat([]byte{0}, 40)...), 0x7c), bytes.Repeat([]byte{1}, 40)...)
	for shape := range shapes {
		f.Add(uint8(5), carries, uint16(30), uint16(41), uint8(KernelAuto), uint8(VerifySampled), deltas, false, uint8(shape))
		f.Add(uint8(5), carries, uint16(30), uint16(41), uint8(KernelAuto), uint8(VerifySampled), deltas, true, uint8(shape))
	}
	f.Add(uint8(6), stream, uint16(64), uint16(90), uint8(KernelAuto), uint8(VerifySampled), deltas, false, uint8(0))
	f.Add(uint8(7), stream, uint16(30), uint16(101), uint8(KernelAuto), uint8(VerifyNone), deltas&seeders, false, uint8(0))
	f.Add(uint8(8), stream, uint16(30), uint16(101), uint8(KernelAuto), uint8(VerifySampled), binaryInvert, false, uint8(0))
	// A lone bus-invert per line, a delta group of one, through the cut
	// leg from swept states: classic, and in 3 partitions on the carries.
	f.Add(uint8(invert), stream, uint16(45), uint16(77), uint8(KernelAuto), uint8(VerifySampled), uint16(1)<<invert, true, uint8(0))
	f.Add(uint8(invert), carries, uint16(30), uint16(41), uint8(KernelAuto), uint8(VerifyNone), uint16(1)<<invert, true, uint8(4))
	// Working-zone and adaptive in the shapes the defaults miss, priced
	// without words and with them, alone and with every codec.
	for shape := len(shapes) - nonDefaultShapes; shape < len(shapes); shape++ {
		for i, c := range shapes[shape] {
			if c.Name() != "workzone" && c.Name() != "adaptive" {
				continue
			}
			f.Add(uint8(i), stream, uint16(45), uint16(77), uint8(KernelAuto), uint8(VerifySampled), uint16(1)<<i, false, uint8(shape))
			f.Add(uint8(i), dataFirst, uint16(4097), uint16(200), uint8(KernelAuto), uint8(VerifyNone), uint16(0), false, uint8(shape))
			f.Add(uint8(i), stream, uint16(7), uint16(150), uint8(KernelScalar), uint8(VerifyFull), uint16(1)<<i, true, uint8(shape))
		}
	}
	f.Fuzz(func(t *testing.T, ci uint8, data []byte, rawChunk, rawCut uint16, kernel, verify uint8, rawSet uint16, perLine bool, shape uint8) {
		codecs := shapes[int(shape)%len(shapes)]
		c := codecs[int(ci)%len(codecs)]
		s := fuzzStream(data)
		n := s.Len()
		chunkLen := 1 + int(rawChunk)%(n+1)
		opts := RunOpts{Verify: VerifyMode(verify % 3), PerLine: perLine, Kernel: Kernel(kernel % 2)}
		fuzzGroups(t, codecs, rawSet, s, chunkLen, rawCut, opts)
		want, err := Run(c, s)
		if err != nil {
			t.Fatal(err)
		}
		label := c.Name() + "/" + opts.Kernel.String()
		got, err := RunFast(c, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, label+"/RunFast", got, want, opts.PerLine)
		if got, err = runStream(c, s.Chunks(chunkLen), opts); err != nil {
			t.Fatal(err)
		}
		sameResult(t, label+"/stream", got, want, opts.PerLine)
		if n < 2 {
			return
		}
		cuts := []int{0, 1 + int(rawCut)%(n-1), n}
		states, err := sweepStates(c, s.Entries, cuts)
		if err != nil {
			t.Fatal(err)
		}
		buses := make([]*bus.Bus, len(cuts)-1)
		for k := range buses {
			bd := Boundary{First: k == 0, Base: cuts[k]}
			if lead := cuts[k] - 1; k > 0 {
				bd.Prev = s.Entries[lead]
				if lead > 0 {
					bd.SeedSym, bd.HaveSeedSym = SymbolOf(s.Entries[lead-1]), true
				}
				if states != nil {
					bd.State = states[k]
				}
			}
			if buses[k], err = priceFrom(c, bd, s.Entries[cuts[k]:cuts[k+1]], opts); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := bus.MergeSlots(buses)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, label+"/seeded", newResult(c, s.Name, merged), want, opts.PerLine)
	})
}

// fuzzGroups is FuzzPricingPaths' grouped half: the codecs rawSet
// selects (every codec when it selects none) priced through NewPricers
// and Consume at chunkLen, and through RunPlaneSet, and their Seeder
// codecs cut at rawCut (fuzzSeededHalves) must equal Run codec for
// codec, in set order.
func fuzzGroups(t *testing.T, codecs []Codec, rawSet uint16, s *trace.Stream, chunkLen int, rawCut uint16, opts RunOpts) {
	var set, seeders []Codec
	var want, seederWant []Result
	for i, c := range codecs {
		if rawSet&(1<<len(codecs)-1) != 0 && rawSet&(1<<i) == 0 {
			continue
		}
		r, err := Run(c, s)
		if err != nil {
			t.Fatal(err)
		}
		set, want = append(set, c), append(want, r)
		if _, ok := c.NewEncoder().(Seeder); ok {
			seeders, seederWant = append(seeders, c), append(seederWant, r)
		}
	}
	label := "group/" + opts.Kernel.String()
	got, err := Collect(priceRange(t, set, s, 0, s.Len(), chunkLen, opts), s.Name)
	if err != nil {
		t.Fatal(err)
	}
	setGot, err := RunPlaneSet(set, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range set {
		if got[i].Codec != c.Name() {
			t.Fatalf("%s: result %d is %s, want %s", label, i, got[i].Codec, c.Name())
		}
		sameResult(t, label+"/"+c.Name(), got[i], want[i], opts.PerLine)
		sameResult(t, "RunPlaneSet/"+c.Name(), setGot[i], want[i], opts.PerLine)
	}
	if n := s.Len(); n >= 2 {
		cut := 1 + int(rawCut)%(n-1)
		if len(seeders) > 0 {
			fuzzSeededHalves(t, seeders, seederWant, s, cut, chunkLen, opts)
		}
		ps, err := NewPricers(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if p.ss != nil || p.ds != nil && !p.ds.seedable {
				if err := p.Seed(Boundary{Prev: s.Entries[cut-1], Base: cut}); err == nil {
					t.Fatalf("group %s: Seed at entry %d accepted; it holds a prefix-dependent codec", p.Name(), cut)
				}
			}
		}
	}
}

// fuzzShapes is FuzzPricingPaths' codec configurations: each is every
// registered codec that builds at its payload width, stride, bus-invert
// partition count, working-zone zones and offset width and adaptive
// list size, with beach trained on a muxed fixture. 32 lines at stride
// 4 come first, then odd widths, width 64, a stride whose shift is the
// width - 1, and partitioned bus-invert. The last two shapes
// (nonDefaultShapes) take 2 zones of 12 offset bits and a 1-entry list,
// and 128 zones of 4 bits, past the 64-zone mask word and the 16 zones
// a recency order ranks, and a 3-entry list.
func fuzzShapes() [][]Codec {
	train := fixtureStreams(2000)[2]
	var out [][]Codec
	for _, sh := range []struct {
		width                    int
		stride                   uint64
		parts                    int
		zones, zoneBits, entries int
	}{
		{32, 4, 1, 0, 0, 0}, {31, 4, 1, 0, 0, 0}, {64, 4, 1, 0, 0, 0}, {33, 1 << 32, 1, 0, 0, 0},
		{32, 4, 3, 0, 0, 0}, {31, 1, 4, 0, 0, 0}, {32, 4, 1, 2, 12, 1}, {32, 4, 1, 128, 4, 3},
	} {
		opts := Options{Stride: sh.stride, Partitions: sh.parts, Train: train, Zones: sh.zones, ZoneBits: sh.zoneBits, Entries: sh.entries}
		var cs []Codec
		for _, name := range Names() {
			if c, err := New(name, sh.width, opts); err == nil {
				cs = append(cs, c)
			}
		}
		out = append(out, cs)
	}
	return out
}

// nonDefaultShapes is how many of fuzzShapes' shapes, at its end, set
// working-zone's and adaptive's options.
const nonDefaultShapes = 2

// fuzzSeededHalves prices the Seeder codecs over [0, cut) and [cut, n)
// the way a distributed worker prices its jobs, one NewPricers + Seed +
// Consume pass per side, merges the two sides per codec with
// bus.MergeSlots and requires Run's statistics. Short of VerifyFull the
// delta codecs form one seeded delta group; under VerifyFull every codec
// prices scalar and keeps verifying past the cut.
func fuzzSeededHalves(t *testing.T, seeders []Codec, want []Result, s *trace.Stream, cut, chunkLen int, opts RunOpts) {
	sides := make([][]*bus.Bus, len(seeders))
	for _, rg := range [][2]int{{0, cut}, {cut, s.Len()}} {
		buses, err := CollectBuses(priceRange(t, seeders, s, rg[0], rg[1], chunkLen, opts))
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
		sameResult(t, "seeded/"+opts.Kernel.String()+"/"+c.Name(), newResult(c, s.Name, merged), want[i], opts.PerLine)
	}
}

// priceRange prices entries [lo, hi) of s through NewPricers, seeded at
// lo as a distributed worker seeds its job, fed chunk by chunk through
// Consume at chunkLen.
func priceRange(t *testing.T, codecs []Codec, s *trace.Stream, lo, hi, chunkLen int, opts RunOpts) []*Pricer {
	t.Helper()
	ps, err := NewPricers(codecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	bd := Boundary{First: lo == 0, Base: lo}
	if lo > 0 {
		bd.Prev = s.Entries[lo-1]
		if lo >= 2 {
			bd.SeedSym, bd.HaveSeedSym = SymbolOf(s.Entries[lo-2]), true
		}
	}
	for _, p := range ps {
		if err := p.Seed(bd); err != nil {
			t.Fatal(err)
		}
	}
	sub := &trace.Stream{Name: s.Name, Width: s.Width, Entries: s.Entries[lo:hi]}
	r := sub.Chunks(chunkLen)
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if err := p.Consume(ch.Addrs, ch.Kinds); err != nil {
				t.Fatal(err)
			}
		}
		ch.Release()
	}
	return ps
}
