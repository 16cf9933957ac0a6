package codec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"busenc/internal/trace"
)

// Fixture streams with the three reference-class shapes of the paper's
// tables: a mostly in-sequence instruction stream, a scattered data
// stream, and a SEL-multiplexed mix of the two. Generated here rather
// than imported from workload to keep the codec package's tests
// self-contained.
func fixtureStreams(n int) []*trace.Stream {
	const stride = 4
	rng := rand.New(rand.NewSource(42))

	instr := trace.New("fixture.instr", 32)
	addr := uint64(0x00400000)
	for i := 0; i < n; i++ {
		switch {
		case rng.Float64() < 0.65:
			addr += stride
		case rng.Float64() < 0.85:
			addr = uint64(int64(addr) + int64(rng.Intn(128)-64)*stride)
		default:
			addr = 0x00400000 + uint64(rng.Intn(1<<16))*stride
		}
		instr.Append(addr, trace.Instr)
	}

	data := trace.New("fixture.data", 32)
	daddr := uint64(0x10000000)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.12 {
			daddr += stride
		} else {
			daddr = 0x10000000 + uint64(rng.Intn(1<<18))*stride
		}
		kind := trace.DataRead
		if rng.Float64() < 0.35 {
			kind = trace.DataWrite
		}
		data.Append(daddr, kind)
	}

	muxed := trace.New("fixture.muxed", 32)
	ii, di := 0, 0
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 && di < data.Len() {
			muxed.Entries = append(muxed.Entries, data.Entries[di])
			di++
		} else if ii < instr.Len() {
			muxed.Entries = append(muxed.Entries, instr.Entries[ii])
			ii++
		}
	}
	return []*trace.Stream{instr, data, muxed}
}

// TestBatchParity is the engine's correctness contract: for every
// registered codec and every fixture stream class, the batched fast path
// must agree bit-for-bit with the reference Run on Transitions, Cycles,
// MaxPerCycle — and on PerLine when requested.
func TestBatchParity(t *testing.T) {
	streams := fixtureStreams(20000)
	train := streams[2].Slice(0, 2000)
	opts := Options{Stride: 4, Train: train}
	for _, name := range Names() {
		for _, s := range streams {
			c := MustNew(name, 32, opts)
			slow, err := Run(c, s)
			if err != nil {
				t.Fatalf("%s/%s: reference Run: %v", name, s.Name, err)
			}
			for _, ro := range []RunOpts{
				{Verify: VerifyFull, PerLine: true},
				{Verify: VerifySampled},
				{Verify: VerifyNone},
			} {
				fast, err := RunFast(MustNew(name, 32, opts), s, ro)
				if err != nil {
					t.Fatalf("%s/%s %+v: RunFast: %v", name, s.Name, ro, err)
				}
				if fast.Transitions != slow.Transitions {
					t.Errorf("%s/%s %+v: transitions %d != %d", name, s.Name, ro, fast.Transitions, slow.Transitions)
				}
				if fast.Cycles != slow.Cycles {
					t.Errorf("%s/%s %+v: cycles %d != %d", name, s.Name, ro, fast.Cycles, slow.Cycles)
				}
				if fast.MaxPerCycle != slow.MaxPerCycle {
					t.Errorf("%s/%s %+v: maxPerCycle %d != %d", name, s.Name, ro, fast.MaxPerCycle, slow.MaxPerCycle)
				}
				if ro.PerLine {
					if !reflect.DeepEqual(fast.PerLine, slow.PerLine) {
						t.Errorf("%s/%s: per-line counts diverge", name, s.Name)
					}
				} else if fast.PerLine != nil {
					t.Errorf("%s/%s: PerLine should be nil without opts.PerLine", name, s.Name)
				}
			}
		}
	}
}

// hotSetStream is the batch kernels' churn fixture: repeats and
// near-zone jumps over a small hot set, alternated with runs of more
// than runChunk distinct addresses, so the adaptive ring and filter and
// the working-zone registers churn through whole batches.
func hotSetStream(n int) *trace.Stream {
	rng := rand.New(rand.NewSource(7))
	s := trace.New("fixture.hotset", 32)
	hot := make([]uint64, 24)
	for i := range hot {
		hot[i] = 0x10000000 + uint64(rng.Intn(1<<20))*4
	}
	fresh := uint64(0x20000000)
	for s.Len() < n {
		for k := 0; k < 3000 && s.Len() < n; k++ {
			h := hot[rng.Intn(len(hot))]
			switch rng.Intn(4) {
			case 0:
				s.Append(h, trace.Instr)
			case 1:
				s.Append(h, trace.DataRead)
			case 2:
				s.Append(h+uint64(rng.Intn(64))*4, trace.DataWrite)
			default:
				s.Append(h+uint64(rng.Intn(8192)), trace.Instr)
			}
		}
		for k := 0; k < runChunk+500 && s.Len() < n; k++ {
			fresh += 4 + uint64(rng.Intn(1<<12))*4
			s.Append(fresh, trace.Kind(rng.Intn(3)))
		}
	}
	return s
}

// batchCase is one encoder configuration TestBatchEncoderMatchesScalar
// drives; restore, when set, is the state both encoders start from.
type batchCase struct {
	label   string
	c       Codec
	restore State
}

// zoneRunStream is the working-zone walk's fixture: runs of one address
// step from near the bases of overlapping zones and from just under the
// payload width's top, so a run wraps there. The steps are 0, the
// stride, odd steps below and at least 2^12 above every zone span the
// cases use (which never hit), and descending; some runs climb into the
// base of a zone another run left above them. Garbage rides above the
// payload width.
func zoneRunStream(n int) *trace.Stream {
	rng := rand.New(rand.NewSource(23))
	s := trace.New("fixture.zoneruns", 32)
	bases := []uint64{0x1000_0000, 0x1000_0040, 0x1000_0100, 0x1000_0180, 0x2000_0000, 0xffff_ff80}
	steps := []uint64{0, 4, 4, 4, 1, 3, 12, 40, 1 << 12, 1 << 13, ^uint64(3)}
	for s.Len() < n {
		a := bases[rng.Intn(len(bases))] + uint64(rng.Intn(96))
		d := steps[rng.Intn(len(steps))]
		kind := trace.Kind(rng.Intn(3))
		for k := 1 + rng.Intn(90); k > 0 && s.Len() < n; k-- {
			s.Append(a|uint64(rng.Intn(4))<<40, kind)
			a += d
		}
	}
	return s
}

// batchCases is every registered codec at its defaults (beach trained
// on train), plus the working-zone and adaptive shapes the defaults do
// not reach (working-zone's 2, 4, 8, 16 and 128 zones: 16 fill every
// nibble of the packed recency order, and 128 pass it and the 64-zone
// mask word), and restored working-zone states: tied ages with
// overlapping zones and a register above the payload mask, which no
// address may match; ages no recency order ranks as the scalar lru
// does, one negative and one that wraps within four touches; and zones
// whose bases lie above the registers after them, so a run that climbs
// from a later zone reaches an earlier one.
func batchCases(t *testing.T, train *trace.Stream) []batchCase {
	var out []batchCase
	for _, name := range Names() {
		out = append(out, batchCase{label: name, c: MustNew(name, 32, Options{Stride: 4, Train: train})})
	}
	if b := MustNew("beach", 32, Options{Train: train}).(*Beach); len(b.Pairs()) == 0 {
		t.Fatal("beach: training selected no pairs; the trained kernel is not exercised")
	}
	for _, zones := range []int{2, 4, 8, 16, 128} {
		for _, zb := range []int{4, 8, 12} {
			out = append(out, batchCase{
				label: fmt.Sprintf("workzone/zones=%d/bits=%d", zones, zb),
				c:     MustNew("workzone", 32, Options{Zones: zones, ZoneBits: zb}),
			})
		}
	}
	for _, w := range []struct{ width, entries int }{{32, 1}, {32, 4}, {32, 16}, {8, 1}, {8, 4}, {8, 8}} {
		out = append(out, batchCase{
			label: fmt.Sprintf("adaptive/width=%d/entries=%d", w.width, w.entries),
			c:     MustNew("adaptive", w.width, Options{Entries: w.entries}),
		})
	}
	out = append(out, batchCase{
		label: "workzone/tied-ages",
		c:     MustNew("workzone", 32, Options{}),
		restore: wzState{
			regs: []uint64{0x10000000, ^uint64(0), 0x20000000, 0x10000000},
			age:  []int{5, 2, 5, 5},
			prev: 0x10000040,
		},
	})
	out = append(out, batchCase{
		label: "workzone/unranked-ages",
		c:     MustNew("workzone", 32, Options{}),
		restore: wzState{
			regs: []uint64{0x10000000, 0x20000000, 0x10000100, 0x30000000},
			age:  []int{-2, 7, math.MaxInt - 3, 7},
			prev: 0x10000004,
		},
	})
	out = append(out, batchCase{
		label: "workzone/earlier-zone",
		c:     MustNew("workzone", 32, Options{}),
		restore: wzState{
			regs: []uint64{0x10000100, 0x10000000, 0x1_1000_0080, 0x10000180},
			age:  []int{3, 0, 1, 2},
			prev: 0x10000008,
		},
	})
	return out
}

// TestBatchEncoderMatchesScalar drives the same entries through Encode
// and EncodeBatch on separate encoder instances, in uneven chunks from
// 0 to more than runChunk entries, and requires identical words, equal
// Snapshots after every chunk (sweepStates takes its states from
// batch encoders), and the chunk's addrs and kinds unchanged. A second
// pass requires EncodeBatch to allocate nothing once warmed up.
func TestBatchEncoderMatchesScalar(t *testing.T) {
	muxed := fixtureStreams(8192)[2]
	low := trace.New("fixture.low", 32)
	for i := 0; i < 3000; i++ {
		low.Append(uint64(i*i%1021), trace.Kind(i%3))
	}
	// A run that hits zone 1 of the earlier-zone state and climbs into
	// zone 0's base, then one that reaches zone 3's, then the walk's
	// fixture.
	climb := trace.New("fixture.climb", 32)
	for a := uint64(0x10000010); a < 0x10000300; a += 8 {
		climb.Append(a, trace.Instr)
	}
	climb.Entries = append(climb.Entries, zoneRunStream(20000).Entries...)
	streams := []*trace.Stream{muxed, hotSetStream(3 * (runChunk + 3500)), low, climb}
	chunkLens := []int{1000, 0, 1, 7, runChunk, 777, 64, runChunk + 1, 1777}
	for _, tc := range batchCases(t, muxed.Slice(0, 1000)) {
		for _, s := range streams {
			addrs := make([]uint64, s.Len())
			kinds := make([]trace.Kind, s.Len())
			for i, e := range s.Entries {
				addrs[i], kinds[i] = e.Addr, e.Kind
			}
			scalarEnc, batchEnc := tc.c.NewEncoder(), tc.c.NewEncoder()
			if tc.restore != nil {
				scalarEnc.(StateCodec).Restore(tc.restore)
				batchEnc.(StateCodec).Restore(tc.restore)
				if got := batchEnc.(StateCodec).Snapshot(); !reflect.DeepEqual(got, tc.restore) {
					t.Fatalf("%s: state %+v after Restore of %+v", tc.label, got, tc.restore)
				}
			}
			be := AsBatch(batchEnc)
			label := tc.label + "/" + s.Name
			got := make([]uint64, runChunk+1)
			for lo, k := 0, 0; lo < len(addrs); k++ {
				hi := min(lo+chunkLens[k%len(chunkLens)], len(addrs))
				ca, ck := addrs[lo:hi], kinds[lo:hi]
				be.EncodeBatch(ca, ck, got)
				for i := range ca {
					want := scalarEnc.Encode(SymbolOf(s.Entries[lo+i]))
					if got[i] != want {
						t.Fatalf("%s: word %d: batch %#x != scalar %#x", label, lo+i, got[i], want)
					}
					if ca[i] != s.Entries[lo+i].Addr || ck[i] != s.Entries[lo+i].Kind {
						t.Fatalf("%s: entry %d: the kernel wrote to its input", label, lo+i)
					}
				}
				if sc, ok := scalarEnc.(StateCodec); ok {
					if bs, ws := batchEnc.(StateCodec).Snapshot(), sc.Snapshot(); !reflect.DeepEqual(bs, ws) {
						t.Fatalf("%s: after entry %d: batch state %+v != scalar state %+v", label, hi, bs, ws)
					}
				}
				lo = hi
			}
		}
	}
	t.Run("allocs", func(t *testing.T) {
		addrs := make([]uint64, runChunk)
		kinds := make([]trace.Kind, runChunk)
		for i, e := range hotSetStream(runChunk).Entries {
			addrs[i], kinds[i] = e.Addr, e.Kind
		}
		out := make([]uint64, runChunk)
		for _, name := range Names() {
			be := AsBatch(MustNew(name, 32, Options{Stride: 4, Train: muxed.Slice(0, 1000)}).NewEncoder())
			be.EncodeBatch(addrs, kinds, out)
			if n := testing.AllocsPerRun(20, func() { be.EncodeBatch(addrs, kinds, out) }); n != 0 {
				t.Errorf("%s: EncodeBatch allocates %.1f times per batch after warm-up", name, n)
			}
		}
	})
}

// TestRunFastEmptyAndTiny covers the degenerate stream lengths where the
// first-drive convention matters.
func TestRunFastEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		s := trace.New("tiny", 32)
		for i := 0; i < n; i++ {
			s.Append(uint64(0x1000+4*i), trace.Instr)
		}
		c := MustNew("t0", 32, Options{Stride: 4})
		slow := MustRun(c, s)
		fast, err := RunFast(MustNew("t0", 32, Options{Stride: 4}), s, RunOpts{PerLine: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if fast.Transitions != slow.Transitions || fast.Cycles != slow.Cycles {
			t.Errorf("n=%d: fast %+v != slow %+v", n, fast, slow)
		}
	}
}

// TestRunFastDetectsMismatch ensures the verification path still fires:
// the deliberately broken decoder (shared with property_test.go) must be
// caught by VerifyFull and by VerifySampled within its prefix.
func TestRunFastDetectsMismatch(t *testing.T) {
	s := fixtureStreams(2000)[0]
	c := brokenCodec{}
	if _, err := RunFast(c, s, RunOpts{Verify: VerifyFull}); err == nil {
		t.Error("VerifyFull missed a decoder bug")
	}
	if _, err := RunFast(c, s, RunOpts{Verify: VerifySampled}); err == nil {
		t.Error("VerifySampled missed a decoder bug in its prefix")
	}
	if _, err := RunFast(c, s, RunOpts{Verify: VerifyNone}); err != nil {
		t.Errorf("VerifyNone should not decode at all: %v", err)
	}
}

// BenchmarkWorkZone times working-zone's batch kernel alone on a
// 2^20-entry muxed stream in 4096-entry chunks, in both modes of its one
// loop: "count" prices without writing a word (countBatch), as the
// Pricer runs it for aggregate KernelAuto requests short of VerifyFull
// (the streaming fan-out, RunFast and the dist workers); "words" writes
// every word (EncodeBatch), as KernelScalar, VerifyFull, per-line
// requests and the state sweeps run it, without bus.Accumulate.
func BenchmarkWorkZone(b *testing.B) {
	s := seqMuxed(1 << 20)
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	words := make([]uint64, runChunk)
	for _, count := range []bool{true, false} {
		name := "words"
		if count {
			name = "count"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := MustNew("workzone", 32, Options{}).NewEncoder().(*wzEnd)
				var r deltaRun
				for base := 0; base < len(addrs); base += runChunk {
					if count {
						r = e.countBatch(addrs[base:base+runChunk], r)
					} else {
						e.EncodeBatch(addrs[base:base+runChunk], kinds[base:base+runChunk], words)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(addrs)), "ns/entry")
		})
	}
}
