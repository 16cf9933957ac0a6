// Package busenc's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (see DESIGN.md for the experiment index) and
// run the ablations of the design choices. Each benchmark reports the
// headline metric of its experiment via b.ReportMetric, so a
// `go test -bench=. -benchmem` run records the full reproduction.
package busenc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"busenc/internal/analytic"
	"busenc/internal/arch"
	"busenc/internal/cache"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/hw"
	"busenc/internal/mips"
	"busenc/internal/mips/progs"
	"busenc/internal/netlist"
	"busenc/internal/system"
	"busenc/internal/trace"
	"busenc/internal/workload"
)

// --- Paper tables -----------------------------------------------------

// BenchmarkTable1 regenerates the analytical comparison (Table 1).
func BenchmarkTable1(b *testing.B) {
	var biRandom float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Table1(core.Width, 50000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Stream == "random" && r.Code == "businvert" {
				biRandom = r.PerClk
			}
		}
	}
	b.ReportMetric(biRandom, "businvert-eta")
	b.ReportMetric(analytic.BinarySequential(core.Width), "binary-seq-perclk")
}

func benchStreamTable(b *testing.B, f func(core.Source) (*core.Table, error), metrics []string) {
	b.Helper()
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = f(core.Synthetic)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tab.AvgInSeqPct, "inseq%")
	for _, m := range metrics {
		s, err := tab.AvgSavingsFor(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s, m+"-savings%")
	}
}

// BenchmarkTable2 regenerates the instruction-stream comparison of the
// existing codes (paper averages: in-seq 63.04%, T0 35.52%, BI 0.03%).
func BenchmarkTable2(b *testing.B) { benchStreamTable(b, core.Table2, core.ExistingCodes) }

// BenchmarkTable3 regenerates the data-stream comparison of the existing
// codes (paper: in-seq 11.39%, T0 3.37%, BI 10.78%).
func BenchmarkTable3(b *testing.B) { benchStreamTable(b, core.Table3, core.ExistingCodes) }

// BenchmarkTable4 regenerates the multiplexed-stream comparison of the
// existing codes (paper: in-seq 57.62%, T0 10.25%, BI 9.79%).
func BenchmarkTable4(b *testing.B) { benchStreamTable(b, core.Table4, core.ExistingCodes) }

// BenchmarkTable5 regenerates the instruction-stream comparison of the
// mixed codes (paper: 34.92% / 35.52% / 35.52%).
func BenchmarkTable5(b *testing.B) { benchStreamTable(b, core.Table5, core.MixedCodes) }

// BenchmarkTable6 regenerates the data-stream comparison of the mixed
// codes (paper: 12.82% / 0.00% / 10.66%).
func BenchmarkTable6(b *testing.B) { benchStreamTable(b, core.Table6, core.MixedCodes) }

// BenchmarkTable7 regenerates the multiplexed-stream comparison of the
// mixed codes — the headline result (paper: 19.56% / 12.15% / 22.25%,
// dual T0_BI best).
func BenchmarkTable7(b *testing.B) { benchStreamTable(b, core.Table7, core.MixedCodes) }

// BenchmarkTable2MIPS regenerates Table 2 from the MIPS simulator instead
// of the calibrated synthetic streams.
func BenchmarkTable2MIPS(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = core.Table2(core.MIPS)
		if err != nil {
			b.Fatal(err)
		}
	}
	s, _ := tab.AvgSavingsFor("t0")
	b.ReportMetric(s, "t0-savings%")
}

// BenchmarkTable8 regenerates the on-chip codec power sweep (paper: dual
// T0_BI encoder dominates T0 encoder at small loads; decoders comparable).
func BenchmarkTable8(b *testing.B) {
	s := core.ReferenceMuxedStream(3000)
	var rows []core.Table8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.Table8(s, core.OnChipLoads)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].DbiEnc/rows[0].T0Enc, "enc-ratio@0.1pF")
	b.ReportMetric(rows[0].DbiDec/rows[0].T0Dec, "dec-ratio")
	b.ReportMetric(rows[0].T0Enc*1e3, "t0-enc-mW@0.1pF")
}

// BenchmarkTable9 regenerates the off-chip global power sweep (paper: T0
// preferable for 20-100 pF, dual T0_BI above).
func BenchmarkTable9(b *testing.B) {
	s := core.ReferenceMuxedStream(3000)
	var rows []core.Table9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.Table9(s, core.OffChipLoads)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric((1-last.DbiGlobal/last.BinaryGlobal)*100, "dbi-global-savings%@1nF")
	if load, ok := core.Crossover(rows); ok {
		b.ReportMetric(load*1e12, "crossover-pF")
	}
}

// BenchmarkCrossover regenerates the load-vs-power series underlying
// Table 9's recommendation as a dense sweep (the "crossover curve").
func BenchmarkCrossover(b *testing.B) {
	s := core.ReferenceMuxedStream(3000)
	loads := make([]float64, 0, 50)
	for l := 10e-12; l <= 500e-12; l += 10e-12 {
		loads = append(loads, l)
	}
	var cross float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Table9(s, loads)
		if err != nil {
			b.Fatal(err)
		}
		if load, ok := core.Crossover(rows); ok {
			cross = load * 1e12
		}
	}
	b.ReportMetric(cross, "crossover-pF")
}

// --- Ablations (DESIGN.md section 5) ----------------------------------

// BenchmarkAblationStride sweeps the T0 stride parameter against a
// stride-4 instruction stream: only the matching stride freezes the bus.
func BenchmarkAblationStride(b *testing.B) {
	s := workload.Suite()[0].Instr()
	bin := codec.MustRun(codec.MustNew("binary", core.Width, codec.Options{}), s)
	for i := 0; i < b.N; i++ {
		for _, stride := range []uint64{1, 2, 4, 8} {
			c := codec.MustNew("t0", core.Width, codec.Options{Stride: stride})
			res := codec.MustRun(c, s)
			if i == b.N-1 {
				b.ReportMetric(res.SavingsVs(bin)*100, "t0-savings%"+metricSuffix(stride))
			}
		}
	}
}

func metricSuffix(stride uint64) string {
	return "-stride" + string(rune('0'+stride))
}

// BenchmarkAblationPartition sweeps the bus-invert partition count on a
// random data stream: more INV lines capture more of the theoretical gain.
func BenchmarkAblationPartition(b *testing.B) {
	s := workload.Random(core.Width, 50000, 3)
	bin := codec.MustRun(codec.MustNew("binary", core.Width, codec.Options{}), s)
	for i := 0; i < b.N; i++ {
		for _, parts := range []int{1, 2, 4, 8} {
			c := codec.MustNew("businvert", core.Width, codec.Options{Partitions: parts})
			res := codec.MustRun(c, s)
			if i == b.N-1 {
				b.ReportMetric(res.SavingsVs(bin)*100, "bi-savings%-p"+string(rune('0'+parts)))
			}
		}
	}
}

// BenchmarkAblationRedundant compares savings with and without counting
// the redundant lines' own toggles — the accounting choice of the paper.
func BenchmarkAblationRedundant(b *testing.B) {
	s := workload.Suite()[0].Muxed()
	bin := codec.MustRun(codec.MustNew("binary", core.Width, codec.Options{}), s)
	var withAll, payloadOnly float64
	for i := 0; i < b.N; i++ {
		c := codec.MustNew("dualt0bi", core.Width, core.DefaultOptions)
		res := codec.MustRun(c, s)
		withAll = res.SavingsVs(bin) * 100
		var payload int64
		for line := 0; line < core.Width; line++ {
			payload += res.PerLine[line]
		}
		payloadOnly = (1 - float64(payload)/float64(bin.Transitions)) * 100
	}
	b.ReportMetric(withAll, "savings%-all-lines")
	b.ReportMetric(payloadOnly, "savings%-payload-only")
}

// BenchmarkAblationPowerModel compares the simulation-based and
// probabilistic power estimates of the T0 encoder.
func BenchmarkAblationPowerModel(b *testing.B) {
	c := hw.T0(core.Width, 2)
	s := core.ReferenceMuxedStream(3000)
	lib := netlist.DefaultLibrary()
	var simP, probP float64
	for i := 0; i < b.N; i++ {
		sim, err := netlist.NewSimulator(c.Enc)
		if err != nil {
			b.Fatal(err)
		}
		nIn := len(c.Enc.Inputs())
		ones := make([]int64, nIn)
		toggles := make([]int64, nIn)
		var prev []bool
		for _, e := range s.Entries {
			in := c.EncInputs(e)
			for k, v := range in {
				if v {
					ones[k]++
				}
				if prev != nil && v != prev[k] {
					toggles[k]++
				}
			}
			prev = in
			sim.Step(in)
		}
		simP = lib.Power(c.Enc, sim.Activity(), 100e6, 0.1e-12)
		stats := make([]netlist.ProbIn, nIn)
		for k := range stats {
			stats[k] = netlist.ProbIn{
				P: float64(ones[k]) / float64(s.Len()),
				D: float64(toggles[k]) / float64(s.Len()-1),
			}
		}
		inMap, err := netlist.MeasuredInputs(c.Enc, stats)
		if err != nil {
			b.Fatal(err)
		}
		est, err := netlist.Propagate(c.Enc, inMap)
		if err != nil {
			b.Fatal(err)
		}
		probP = lib.Power(c.Enc, est, 100e6, 0.1e-12)
	}
	b.ReportMetric(simP*1e3, "simulated-mW")
	b.ReportMetric(probP*1e3, "probabilistic-mW")
}

// BenchmarkAblationHierarchy measures how an L1 cache changes the stream's
// in-sequence fraction and the best code's savings.
func BenchmarkAblationHierarchy(b *testing.B) {
	s := workload.Suite()[0].Muxed()
	var cpuSeq, missSeq, cpuSave, missSave float64
	for i := 0; i < b.N; i++ {
		l1, err := cache.New(cache.Config{Size: 8 << 10, LineSize: 16, Ways: 2, WriteBack: true})
		if err != nil {
			b.Fatal(err)
		}
		miss := l1.Filter(s)
		cpuSeq = s.InSeqFraction(4) * 100
		missSeq = miss.InSeqFraction(16) * 100
		binCPU := codec.MustRun(codec.MustNew("binary", core.Width, codec.Options{}), s)
		binMiss := codec.MustRun(codec.MustNew("binary", core.Width, codec.Options{}), miss)
		cpuSave = codec.MustRun(codec.MustNew("dualt0bi", core.Width, codec.Options{Stride: 4}), s).SavingsVs(binCPU) * 100
		missSave = codec.MustRun(codec.MustNew("dualt0bi", core.Width, codec.Options{Stride: 16}), miss).SavingsVs(binMiss) * 100
	}
	b.ReportMetric(cpuSeq, "cpu-inseq%")
	b.ReportMetric(missSeq, "l2bus-inseq%")
	b.ReportMetric(cpuSave, "cpu-dbi-savings%")
	b.ReportMetric(missSave, "l2bus-dbi-savings%")
}

// --- Codec micro-benchmarks -------------------------------------------

func benchCodecThroughput(b *testing.B, name string) {
	s := workload.Suite()[0].Muxed()
	train := s.Slice(0, 1000)
	c := codec.MustNew(name, core.Width, codec.Options{Stride: 4, Train: train})
	enc := c.NewEncoder()
	syms := make([]codec.Symbol, s.Len())
	for i, e := range s.Entries {
		syms[i] = codec.SymbolOf(e)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= enc.Encode(syms[i%len(syms)])
	}
	_ = sink
}

func BenchmarkEncodeBinary(b *testing.B)    { benchCodecThroughput(b, "binary") }
func BenchmarkEncodeGray(b *testing.B)      { benchCodecThroughput(b, "gray") }
func BenchmarkEncodeBusInvert(b *testing.B) { benchCodecThroughput(b, "businvert") }
func BenchmarkEncodeT0(b *testing.B)        { benchCodecThroughput(b, "t0") }
func BenchmarkEncodeT0BI(b *testing.B)      { benchCodecThroughput(b, "t0bi") }
func BenchmarkEncodeDualT0(b *testing.B)    { benchCodecThroughput(b, "dualt0") }
func BenchmarkEncodeDualT0BI(b *testing.B)  { benchCodecThroughput(b, "dualt0bi") }
func BenchmarkEncodeOffset(b *testing.B)    { benchCodecThroughput(b, "offset") }
func BenchmarkEncodeWorkZone(b *testing.B)  { benchCodecThroughput(b, "workzone") }
func BenchmarkEncodeBeach(b *testing.B)     { benchCodecThroughput(b, "beach") }

// BenchmarkRunFast measures the batched evaluation path per codec: encode
// in chunks via the codec's batch kernel, count transitions in bulk,
// verify a sampled prefix. Compare against BenchmarkRunSlowReference for
// the per-entry dispatch cost the engine removes.
func BenchmarkRunFast(b *testing.B) {
	s := workload.Suite()[0].Muxed()
	for _, name := range []string{"binary", "gray", "t0", "businvert", "t0bi", "dualt0", "dualt0bi"} {
		b.Run(name, func(b *testing.B) {
			c := codec.MustNew(name, core.Width, codec.Options{Stride: 4})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.RunFast(c, s, codec.RunOpts{Verify: codec.VerifySampled}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msym/s")
		})
	}
}

// BenchmarkRunSlowReference is the seed evaluation path (codec.Run) over
// the same stream, for tracking the fast/slow ratio.
func BenchmarkRunSlowReference(b *testing.B) {
	s := workload.Suite()[0].Muxed()
	c := codec.MustNew("dualt0bi", core.Width, codec.Options{Stride: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.MustRun(c, s)
	}
	b.ReportMetric(float64(s.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msym/s")
}

// BenchmarkEncodeBatch measures the raw batch encode kernels of every
// registered codec: address and kind columns in, words out, no counting
// or verification. Codecs without a kernel of their own (offset and
// incxor, which price on the plane kernel) time the generic per-entry
// wrapper.
func BenchmarkEncodeBatch(b *testing.B) {
	s := workload.Suite()[0].Muxed()
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	out := make([]uint64, len(addrs))
	for _, name := range codec.Names() {
		b.Run(name, func(b *testing.B) {
			enc := codec.AsBatch(codec.MustNew(name, core.Width, core.DefaultOptions).NewEncoder())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.EncodeBatch(addrs, kinds, out)
			}
			b.ReportMetric(float64(len(addrs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msym/s")
		})
	}
}

// BenchmarkPricers times, one at a time on one goroutine, each Pricer
// that codec.NewPricers builds for the twelve-codec request over the
// 2^20-entry MIPS muxed stream busencbench prices (seed 1), as a dist
// worker prices a whole-trace job: Consume over the stream's columns,
// sampled verification. It covers every sweep shape the dist planner
// weighs: "auto" (the delta and T0-family groups, working-zone and
// adaptive), "perline" (the plane group in place of the delta group),
// "scalar" and "full" (every codec on its batch kernel, under
// KernelScalar and under VerifyFull) and "alone" (each group codec priced
// on its own), each Pricer named by its codecs joined by "+". "decode"
// is the in-memory BETR reader over the same stream from a heap view,
// which every job pays once. "instr" prices the four plane codecs over
// a 2^20-entry instruction stream built as busencbench builds the
// instr-plane input (in-sequence 0.90, stride 4, seed 1), and decodes
// it: the delta group's in-sequence runs show here, not on the muxed
// stream. Each reports ns/entry; the dist planner's weight table
// (internal/dist/plan.go) quotes the muxed stream's medians and reads
// nothing from "instr".
func BenchmarkPricers(b *testing.B) {
	var mux workload.MuxSpec
	for _, p := range arch.Profiles() {
		if p.Name == "mips" {
			mux = workload.MuxSpec{Instr: p.InstrSpec(), Data: p.DataSpec(), DataFrac: p.DataFrac}
		}
	}
	s := mux.Stream("muxed", workload.Width, 1<<20, 1<<16)
	codecs := make([]codec.Codec, len(codec.Names()))
	for i, name := range codec.Names() {
		codecs[i] = codec.MustNew(name, s.Width, core.DefaultOptions)
	}
	sampled := codec.RunOpts{Verify: codec.VerifySampled}
	price, decode := pricerBenches(b, s)
	for _, shape := range []struct {
		name string
		opts codec.RunOpts
	}{
		{"auto", sampled},
		{"perline", codec.RunOpts{Verify: codec.VerifySampled, PerLine: true}},
		{"scalar", codec.RunOpts{Verify: codec.VerifySampled, Kernel: codec.KernelScalar}},
		{"full", codec.RunOpts{Verify: codec.VerifyFull}},
	} {
		priceGroups(b, shape.name, codecs, shape.opts, price)
	}
	groups, err := codec.Groups(codecs, sampled)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range groups {
		if len(g.At) > 1 {
			for _, at := range g.At {
				price("alone/"+codecs[at].Name(), codecs[at:at+1], sampled)
			}
		}
	}
	decode("decode")

	instr := workload.InstrSpec{Target: 0.90, Stride: workload.Stride, Far: mux.Instr.Far}.Stream("instr", workload.Width, 1<<20, 1<<16)
	planes := make([]codec.Codec, 0, 4)
	for _, name := range []string{"binary", "gray", "offset", "incxor"} {
		planes = append(planes, codec.MustNew(name, instr.Width, core.DefaultOptions))
	}
	price, decode = pricerBenches(b, instr)
	priceGroups(b, "instr", planes, sampled, price)
	decode("instr/decode")
}

// pricerBenches returns BenchmarkPricers' two timers over stream s:
// price runs the one Pricer NewPricers builds for set over s's columns,
// decode the in-memory BETR reader over s from a heap view. Both report
// ns/entry.
func pricerBenches(b *testing.B, s *trace.Stream) (price func(name string, set []codec.Codec, opts codec.RunOpts), decode func(name string)) {
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	perEntry := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Len()), "ns/entry")
	}
	price = func(name string, set []codec.Codec, opts codec.RunOpts) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ps, err := codec.NewPricers(set, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(ps) != 1 {
					b.Fatalf("%d Pricers for one group", len(ps))
				}
				if err := ps[0].Consume(addrs, kinds); err != nil {
					b.Fatal(err)
				}
			}
			perEntry(b)
		})
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, s); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	decode = func(name string) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx, err := trace.HeaderBETR(data, "")
				if err != nil {
					b.Fatal(err)
				}
				r, err := trace.NewMemRangeReader(data, idx.Name, idx.Width, idx.Cuts[0], idx.Total, "", nil)
				if err != nil {
					b.Fatal(err)
				}
				n, err := trace.Copy(r, func(*trace.Chunk) error { return nil })
				if err != nil || n != int64(s.Len()) {
					b.Fatalf("decoded %d of %d entries: %v", n, s.Len(), err)
				}
			}
			perEntry(b)
		})
	}
	return price, decode
}

// priceGroups runs price over every Pricer codec.Groups makes of codecs
// under opts, each named shape/ and its codecs joined by "+".
func priceGroups(b *testing.B, shape string, codecs []codec.Codec, opts codec.RunOpts, price func(string, []codec.Codec, codec.RunOpts)) {
	groups, err := codec.Groups(codecs, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range groups {
		set := make([]codec.Codec, len(g.At))
		names := make([]string, len(g.At))
		for i, at := range g.At {
			set[i], names[i] = codecs[at], codecs[at].Name()
		}
		price(shape+"/"+strings.Join(names, "+"), set, opts)
	}
}

// BenchmarkStreamPipeline measures the single-pass streaming fan-out:
// each iteration re-parses a serialized binary trace and prices a codec
// set under the bounded-memory pipeline. "paper" is the seven paper
// codecs (binary, gray and businvert share the delta group, the T0
// family its in-sequence group); "plane" is the instr-plane set, all
// four plane codecs in the delta group, so -cpu 1,2 shows what one
// group per stream buys at each core count. The serialization happens once, outside the timer;
// with -benchmem, allocs/op should stay flat as the trace grows (pooled
// chunks, bounded channels), unlike the materialize-then-run path.
func BenchmarkStreamPipeline(b *testing.B) {
	s := core.ReferenceMuxedStream(1 << 16)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, s); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, set := range []struct {
		name  string
		codes []string
	}{
		{"paper", []string{"binary", "gray", "t0", "businvert", "t0bi", "dualt0", "dualt0bi"}},
		{"plane", []string{"binary", "gray", "offset", "incxor"}},
	} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := trace.OpenBinary(bytes.NewReader(data), "bench.bin", nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.EvaluateStreaming(r, r.Width(), set.codes, core.DefaultOptions,
					core.FanoutConfig{Verify: codec.VerifySampled}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msym/s")
		})
	}
}

// BenchmarkMIPSSimulator measures the trace-generation substrate: one full
// run of the espresso kernel per iteration, reporting simulated cycles/op.
func BenchmarkMIPSSimulator(b *testing.B) {
	bench, err := progs.Get("espresso")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	var s *trace.Stream
	var stats mips.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, stats, err = mips.Run(prog, "espresso", bench.MaxCycles)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Cycles), "cycles/op")
	b.ReportMetric(float64(s.Len()), "busrefs/op")
}

// BenchmarkArchCharacterization runs the future-work study: best code per
// bus per architecture profile (see internal/arch).
func BenchmarkArchCharacterization(b *testing.B) {
	var muxedBest string
	var muxedSave float64
	for i := 0; i < b.N; i++ {
		for _, p := range arch.Profiles() {
			recs, err := arch.Characterize(p, 20000, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range recs {
				if p.Name == "mips" && r.Bus == "muxed" {
					muxedBest = r.Best
					muxedSave = r.SavingsPct
				}
			}
		}
	}
	if muxedBest == "dualt0bi" {
		b.ReportMetric(1, "mips-muxed-is-dualt0bi")
	}
	b.ReportMetric(muxedSave, "mips-muxed-savings%")
}

// BenchmarkAblationGlitch sweeps the glitch-factor correction of the
// power model: the dual T0_BI / T0 encoder power ratio at a small load
// grows with the modeled glitching of the deep Hamming-distance tree.
func BenchmarkAblationGlitch(b *testing.B) {
	s := core.ReferenceMuxedStream(2000)
	t0, err := core.MeasureHW(hw.T0(core.Width, 2), s)
	if err != nil {
		b.Fatal(err)
	}
	dbi, err := core.MeasureHW(hw.DualT0BI(core.Width, 2), s)
	if err != nil {
		b.Fatal(err)
	}
	var ratios [3]float64
	for i := 0; i < b.N; i++ {
		for gi, gf := range []float64{0, 0.4, 0.8} {
			lib := netlist.DefaultLibrary()
			lib.GlitchFactor = gf
			pT0 := lib.Power(t0.Codec.Enc, t0.EncAct, 100e6, 0.1e-12)
			pDbi := lib.Power(dbi.Codec.Enc, dbi.EncAct, 100e6, 0.1e-12)
			ratios[gi] = pDbi / pT0
		}
	}
	b.ReportMetric(ratios[0], "enc-ratio-gf0")
	b.ReportMetric(ratios[1], "enc-ratio-gf0.4")
	b.ReportMetric(ratios[2], "enc-ratio-gf0.8")
}

// BenchmarkHWComparison measures the extended all-codec hardware table.
func BenchmarkHWComparison(b *testing.B) {
	s := core.ReferenceMuxedStream(1500)
	var rows []core.HWRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.HWComparison(s, 2, 0.1e-12)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "dualt0bi" {
			b.ReportMetric(r.BusSavingsPct, "dualt0bi-bus-savings%")
		}
	}
}

// BenchmarkAblationCoupling evaluates the code family under the
// deep-submicron coupling energy model (lambda = coupling/ground cap
// ratio): rankings from the paper's lambda=0 metric shift as lambda grows.
func BenchmarkAblationCoupling(b *testing.B) {
	s := workload.Suite()[0].Muxed()
	names := []string{"binary", "gray", "t0", "dualt0bi"}
	energies := map[string][2]float64{}
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			c := codec.MustNew(name, core.Width, codec.Options{Stride: 4})
			st := codec.Coupling(c, s)
			energies[name] = [2]float64{st.AvgEnergyPerCycle(0), st.AvgEnergyPerCycle(2)}
		}
	}
	bin := energies["binary"]
	for _, name := range names[1:] {
		e := energies[name]
		b.ReportMetric((1-e[0]/bin[0])*100, name+"-savings%-l0")
		b.ReportMetric((1-e[1]/bin[1])*100, name+"-savings%-l2")
	}
}

// BenchmarkSystemEvaluation runs the whole-system power evaluation (MIPS
// program -> encoded off-chip bus) and reports the net saving.
func BenchmarkSystemEvaluation(b *testing.B) {
	bench, err := progs.Get("gzip")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	var net float64
	for i := 0; i < b.N; i++ {
		rep, err := system.Evaluate(system.Config{
			Program:   prog,
			MaxCycles: bench.MaxCycles,
			CPUBus: system.BusConfig{
				Code:     "dualt0bi",
				Options:  codec.Options{Stride: 4},
				LineCapF: 50e-12,
				OffChip:  true,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		net = rep.CPUBus.NetSavingsPct
	}
	b.ReportMetric(net, "net-system-savings%")
}

// BenchmarkAblationResilience runs the fault-injection campaign across
// the family: mean error burst per single-event upset. Redundant codes
// pay for power savings with state-dependent error propagation.
func BenchmarkAblationResilience(b *testing.B) {
	s := workload.Suite()[0].Muxed().Slice(0, 5000)
	names := []string{"binary", "businvert", "t0", "dualt0bi", "offset"}
	bursts := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			c := codec.MustNew(name, core.Width, codec.Options{Stride: 4})
			rep := codec.Resilience(c, s, 20, 9)
			bursts[name] = rep.MeanBurst
		}
	}
	for _, name := range names {
		b.ReportMetric(bursts[name], name+"-mean-burst")
	}
}

// BenchmarkSavingsCurve emits the design-aid curve: predicted vs measured
// T0 savings as a function of the stream's in-sequence probability on the
// single-state Markov model (internal/analytic closed forms).
func BenchmarkSavingsCurve(b *testing.B) {
	const m = 16
	points := []float64{0.2, 0.5, 0.8}
	var preds [3]float64
	for i := 0; i < b.N; i++ {
		for k, p := range points {
			preds[k] = analytic.T0MarkovSavings(p, m) * 100
		}
	}
	for k, p := range points {
		b.ReportMetric(preds[k], fmt.Sprintf("t0-savings%%-p%.1f", p))
	}
	if be, ok := analytic.T0MarkovBreakEven(0.25, m); ok {
		b.ReportMetric(be, "breakeven-p-for-25%")
	}
}
