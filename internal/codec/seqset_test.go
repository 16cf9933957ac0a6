package codec

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/trace"
	"busenc/internal/workload"
)

// seqNames is the T0 family, every codec a SeqSet can group.
var seqNames = []string{"t0", "t0bi", "dualt0", "dualt0bi"}

// seqMemberSets returns every set of two, three and four T0-family
// codec names, in seqNames order within a set.
func seqMemberSets() [][]string {
	var out [][]string
	for bits := 1; bits < 1<<len(seqNames); bits++ {
		var set []string
		for i, name := range seqNames {
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

// seqMuxed is a muxed stream at the paper's MIPS averages (instruction
// in-sequence 0.63, data 0.11, data fraction 0.045), n entries long.
func seqMuxed(n int) *trace.Stream {
	b := workload.Benchmark{Name: "muxed", InstrSeq: 0.63, DataSeq: 0.11, DataFrac: 0.045, Length: n, Seed: 1}
	return b.Muxed()
}

// seqStreams returns the parity grid's streams for a payload width and
// stride, each long enough that 4096- and 4097-entry chunks split it.
func seqStreams(width int, stride uint64) []*trace.Stream {
	const n = 4200
	rng := rand.New(rand.NewSource(int64(width)*131 + int64(stride)))
	mk := func(name string) *trace.Stream { return trace.New(name, width) }

	muxed := seqMuxedOnce()
	ref := mk("muxed")
	ref.Entries = muxed.Entries[:n]

	inSeq := mk("all-in-sequence")
	for i, a := 0, uint64(0x0040_0000); i < n; i, a = i+1, a+stride {
		inSeq.Append(a, trace.Instr)
	}

	none := mk("none-in-sequence")
	for i := 0; i < n; i++ {
		kind := trace.Instr
		if rng.Intn(4) == 0 {
			kind = trace.DataRead
		}
		none.Append(rng.Uint64(), kind)
	}

	alt := mk("alternating")
	for i, pc := 0, uint64(0x0040_0000); i < n; i++ {
		if i%2 == 0 {
			alt.Append(pc, trace.Instr)
			pc += stride
		} else {
			alt.Append(0x1000_0000+uint64(rng.Intn(1<<12))*8, trace.DataWrite)
		}
	}

	dataFirst := mk("data-first")
	for i := 0; i < 300; i++ {
		dataFirst.Append(0x1000_0000+uint64(i)*stride, trace.DataRead)
	}
	dataFirst.Entries = append(dataFirst.Entries, muxed.Entries[:n-300]...)

	// Runs that climb past the payload width's top and wrap to zero,
	// with garbage above the width.
	wrap := mk("wrap")
	top := bus.Mask(width)
	for len(wrap.Entries) < n {
		a := top - uint64(rng.Intn(8))*stride
		for j := 0; j < 3+rng.Intn(20); j++ {
			kind := trace.Instr
			if rng.Intn(10) == 0 {
				kind = trace.DataRead
			}
			wrap.Append(a|rng.Uint64()&^top, kind)
			a += stride
		}
	}
	wrap.Entries = wrap.Entries[:n]
	return []*trace.Stream{ref, inSeq, none, alt, dataFirst, wrap}
}

var seqMuxedOnce = sync.OnceValue(func() *trace.Stream { return seqMuxed(4200) })

// seqShortLen is the stream prefix the parity grid prices in chunks
// shorter than a batch: hundreds of chunks, every block split.
const seqShortLen = 700

// TestSeqSetParity holds the in-sequence group to codec.Run on every
// Result field, over widths (t0bi at 62 puts INV on line 63), strides,
// every member set of two to four codecs, chunk lengths around the
// 64-entry block and the 4096-entry batch, streams from the muxed
// reference to all, none and alternately in sequence, data first and
// wrapping at the width's top, PerLine on and off, and the sampled and
// absent verify budgets. Consume and ConsumeEntries alternate. Each
// member's encoder must also end in the state Encode leaves. The grid
// prices one goroutine's stream, where the race detector has nothing to
// find, so under it the grid keeps width 32 and stride 4 alone.
func TestSeqSetParity(t *testing.T) {
	widths, strides := []int{1, 8, 31, 32, 62}, []uint64{1, 4, 64}
	if raceEnabled {
		widths, strides = []int{32}, []uint64{4}
	}
	sets := seqMemberSets()
	for _, width := range widths {
		for _, stride := range strides {
			for _, full := range seqStreams(width, stride) {
				for _, s := range []*trace.Stream{full.Slice(0, seqShortLen), full} {
					chunkLens := []int{1, 63, 64, 65}
					if s == full {
						chunkLens = []int{4096, 4097}
					}
					seqParity(t, fmt.Sprintf("w%d/s%d/%s/n%d", width, stride, s.Name, s.Len()), s, width, stride, sets, chunkLens)
				}
			}
		}
	}
}

// seqParity runs TestSeqSetParity's grid over one stream.
func seqParity(t *testing.T, prefix string, s *trace.Stream, width int, stride uint64, sets [][]string, chunkLens []int) {
	t.Helper()
	want := map[string]Result{}
	state := map[string]State{}
	for _, name := range seqNames {
		c := MustNew(name, width, Options{Stride: stride})
		r, err := Run(c, s)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = r
		enc := c.NewEncoder()
		for _, e := range s.Entries {
			enc.Encode(SymbolOf(e))
		}
		state[name] = enc.(StateCodec).Snapshot()
	}
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	combo := 0
	for _, set := range sets {
		codecs := make([]Codec, len(set))
		for i, name := range set {
			codecs[i] = MustNew(name, width, Options{Stride: stride})
		}
		for _, chunkLen := range chunkLens {
			for _, perLine := range []bool{false, true} {
				for _, verify := range []VerifyMode{VerifySampled, VerifyNone} {
					combo++
					label := fmt.Sprintf("%s/%s/chunk%d/perline=%v/verify%d", prefix, strings.Join(set, "+"), chunkLen, perLine, verify)
					p := seqGroupPricer(t, label, codecs, RunOpts{Verify: verify, PerLine: perLine})
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
						sameResult(t, label+"/"+name, got[i], w, perLine)
						if st := p.ss.members[i].enc.(StateCodec).Snapshot(); st != state[name] {
							t.Fatalf("%s/%s: encoder state %+v, Encode leaves %+v", label, name, st, state[name])
						}
					}
				}
			}
		}
	}
}

// seqGroupPricer builds the one Pricer NewPricers groups codecs into,
// failing unless it is a SeqSet group.
func seqGroupPricer(t testing.TB, label string, codecs []Codec, opts RunOpts) *Pricer {
	t.Helper()
	ps, err := NewPricers(codecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].ss == nil {
		t.Fatalf("%s: NewPricers built %d Pricers, want one in-sequence group", label, len(ps))
	}
	return ps[0]
}

// TestNewPricersRoutesSeqGroups: NewPricers groups two or more T0-family
// codecs of one width and stride under KernelAuto short of VerifyFull,
// after the delta groups, and leaves every other T0-family codec on its
// batch kernel.
func TestNewPricersRoutesSeqGroups(t *testing.T) {
	t0 := MustNew("t0", 32, Options{Stride: 4})
	t0bi := MustNew("t0bi", 32, Options{Stride: 4})
	dual := MustNew("dualt0bi", 32, Options{Stride: 4})
	t0s8 := MustNew("t0", 32, Options{Stride: 8})
	t0w16 := MustNew("t0bi", 16, Options{Stride: 4})
	gray := MustNew("gray", 32, Options{})
	wz := MustNew("workzone", 32, Options{})
	for _, tc := range []struct {
		name   string
		codecs []Codec
		opts   RunOpts
		want   []string // each Pricer's Name, in order
	}{
		{"group", []Codec{t0, gray, wz, dual, t0bi}, RunOpts{Verify: VerifySampled}, []string{"t0+dualt0bi+t0bi", "gray", "workzone"}},
		{"lone", []Codec{wz, t0, gray}, RunOpts{Verify: VerifyNone}, []string{"workzone", "t0", "gray"}},
		{"lone per line", []Codec{wz, t0, gray}, RunOpts{Verify: VerifyNone, PerLine: true}, []string{"gray", "workzone", "t0"}},
		{"scalar kernel", []Codec{t0, dual}, RunOpts{Kernel: KernelScalar, Verify: VerifyNone}, []string{"t0", "dualt0bi"}},
		{"verify full", []Codec{t0, dual}, RunOpts{}, []string{"t0", "dualt0bi"}},
		{"stride and width", []Codec{t0s8, t0, t0w16, t0bi}, RunOpts{Verify: VerifyNone}, []string{"t0+t0bi", "t0", "t0bi"}},
	} {
		ps, err := NewPricers(tc.codecs, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range ps {
			got = append(got, p.Name())
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: Pricers %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSeqSetConsumeAllocs: after warm-up the group allocates nothing per
// Consume, PerLine or not.
func TestSeqSetConsumeAllocs(t *testing.T) {
	s := seqMuxedOnce()
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	for _, perLine := range []bool{false, true} {
		var codecs []Codec
		for _, name := range seqNames {
			codecs = append(codecs, MustNew(name, 32, Options{Stride: 4}))
		}
		p := seqGroupPricer(t, "allocs", codecs, RunOpts{Verify: VerifySampled, PerLine: perLine})
		if err := p.Consume(addrs[:2048], kinds[:2048]); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := p.Consume(addrs[2048:4096], kinds[2048:4096]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("perline=%v: %.1f allocations per Consume, want 0", perLine, n)
		}
	}
}

// TestSeqSetSeedTakesFirstOnly: a group joins only at entry 0; past it
// Seed names the group and refuses.
func TestSeqSetSeedTakesFirstOnly(t *testing.T) {
	s := randomMixStream(32, 300, 3)
	codecs := []Codec{MustNew("t0", 32, Options{Stride: 4}), MustNew("dualt0bi", 32, Options{Stride: 4})}
	p := seqGroupPricer(t, "seed", codecs, RunOpts{Verify: VerifySampled})
	if err := p.Seed(Boundary{First: true}); err != nil {
		t.Fatalf("Seed(First) = %v", err)
	}
	q := seqGroupPricer(t, "seed", codecs, RunOpts{Verify: VerifyNone})
	bd := Boundary{Prev: s.Entries[99], SeedSym: SymbolOf(s.Entries[98]), HaveSeedSym: true, Base: 100}
	want := "codec t0+dualt0bi: an in-sequence group prices from entry 0 only"
	if err := q.Seed(bd); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Seed past entry 0 = %v, want %q", err, want)
	}
}

// failAt is a T0 code whose decoder goes wrong at entry at; it keeps
// T0's group kernel, so it joins a SeqSet.
type failAt struct {
	*T0
	name string
	at   int
}

func (f failAt) Name() string { return f.name }
func (f failAt) NewDecoder() Decoder {
	return &failingDecoder{Decoder: f.T0.NewDecoder(), left: f.at}
}

// TestSeqSetCollectFirstFailure: a group keeps verifying its other
// codecs after one fails, so Collect reports the first failing codec in
// list order, not the first mismatch in stream order.
func TestSeqSetCollectFirstFailure(t *testing.T) {
	s := randomMixStream(32, 3000, 11)
	t0, err := NewT0(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	codecs := []Codec{MustNew("t0bi", 32, Options{Stride: 4}), failAt{t0, "late", 700}, failAt{t0, "early", 30}, MustNew("dualt0", 32, Options{Stride: 4})}
	p := seqGroupPricer(t, "collect", codecs, RunOpts{Verify: VerifySampled})
	for base := 0; base < s.Len(); base += 64 {
		if p.ConsumeEntries(s.Entries[base:min(base+64, s.Len())]) != nil {
			break
		}
	}
	_, err = Collect([]*Pricer{p}, s.Name)
	if want := "codec late: round-trip mismatch at entry 700"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Collect error = %v, want %q", err, want)
	}
}

// BenchmarkSeqSet times every member set's group against its members'
// batch kernels plus bus.Accumulate, on a 2^20-entry muxed stream in
// 4096-entry chunks, without verification: the part of a streaming pass
// the group replaces. busencbench's per-codec encode metric times
// RunFast, which keeps the batch kernels, so only this benchmark
// attributes the group's gain.
func BenchmarkSeqSet(b *testing.B) {
	s := seqMuxed(1 << 20)
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	perEntry := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(addrs)), "ns/entry")
	}
	for _, set := range seqMemberSets() {
		codecs := make([]Codec, len(set))
		for i, name := range set {
			codecs[i] = MustNew(name, 32, Options{Stride: 4})
		}
		name := strings.Join(set, "+")
		b.Run(name+"/group", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ss, err := NewSeqSet(codecs, false)
				if err != nil {
					b.Fatal(err)
				}
				for base := 0; base < len(addrs); base += runChunk {
					ss.Consume(addrs[base:base+runChunk], kinds[base:base+runChunk])
				}
			}
			perEntry(b)
		})
		b.Run(name+"/batch", func(b *testing.B) {
			words := make([]uint64, runChunk)
			for i := 0; i < b.N; i++ {
				for _, c := range codecs {
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
