package main

import (
	"fmt"
	"runtime"

	"busenc/internal/bench"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/obs"
)

// Per-line kernel benchmark (-benchjson writes BENCH_bitslice.json
// alongside the other records): prices the seedable codecs binary,
// gray, offset and incxor per line over the same materialized trace two
// ways on the same machine —
//
//   - scalar: codec.RunFast per codec with Kernel forced to
//     KernelScalar, so the batch encode kernels materialize every word
//     and bus.Accumulate finds each word's toggling lines with a
//     TrailingZeros64 walk;
//   - plane: one codec.RunPlaneSet sweep, which prices all four codecs
//     in one per-line delta group: in-sequence runs in closed form line
//     by line, every other lane's toggle word summed per line in
//     bit-sliced carry-save adders (bus.LineCounter), never
//     materializing the word stream. The record keeps the name and the
//     metric keys of the bit-sliced plane group this side timed until
//     the delta group replaced it.
//
// Both sides request identical statistics (per-line counts, so parity
// covers Transitions, Cycles, PerLine and MaxPerCycle) with VerifyNone,
// isolating encode+count. Each side reports its best of warmIters
// passes, and the two sides' passes alternate (bestOfEach), so a
// machine that drifts while the record is taken slows both.
// speedup_bitslice = scalar_ns / plane_ns is a same-machine ratio, so
// the record declares an absolute 5x floor on it that binds on every
// regeneration, next to the usual relative band.

// bitsliceCodes are the four codecs the record has always priced.
var bitsliceCodes = []string{"binary", "gray", "offset", "incxor"}

// benchBitslice runs the comparison and writes BENCH_bitslice.json.
func benchBitslice(path string, entries, warmIters int) (err error) {
	sp := obs.StartSpan("bench.bitslice", obs.StageBench)
	defer func() { sp.EndErr(err) }()
	s := buildBenchTrace(entries)
	cs := make([]codec.Codec, len(bitsliceCodes))
	for i, code := range bitsliceCodes {
		cs[i] = codec.MustNew(code, core.Width, core.DefaultOptions)
	}
	opts := codec.RunOpts{Verify: codec.VerifyNone, PerLine: true}

	// Serial measurement: both paths are single-threaded, so pin to one
	// proc to keep records insensitive to background scheduling.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	scalar := func() ([]codec.Result, error) {
		out := make([]codec.Result, len(cs))
		sopts := opts
		sopts.Kernel = codec.KernelScalar
		for i, c := range cs {
			res, err := codec.RunFast(c, s, sopts)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	plane := func() ([]codec.Result, error) { return codec.RunPlaneSet(cs, s, opts) }
	scalarResults, planeResults, scalarNs, planeNs, err := bestOfEach(warmIters, scalar, plane)
	if err != nil {
		return err
	}
	parity := sameResults(scalarResults, planeResults)

	rec := bench.New("Bitslice", codec.RunChunkLen)
	rec.Info = map[string]any{"codecs": bitsliceCodes, "per_line": true}
	rec.Metrics = map[string]float64{
		"entries":          float64(entries),
		"gomaxprocs":       1,
		"warm_iters":       float64(warmIters),
		"scalar_ns":        float64(scalarNs), // best warm scalar-kernel sweep
		"plane_ns":         float64(planeNs),  // best warm RunPlaneSet sweep (the per-line delta group)
		"speedup_bitslice": float64(scalarNs) / float64(planeNs),
		"parity":           bench.Bool(parity), // all Result fields identical
	}
	rec.Checks = []bench.Check{
		{Metric: "speedup_bitslice", Kind: bench.Floor, Bound: 5},
		{Metric: "speedup_bitslice", Kind: bench.Ratio, Bound: bench.Band},
		{Metric: "parity", Kind: bench.Invariant, Bound: 1},
	}
	if err := bench.Write(path, rec); err != nil {
		return err
	}
	fmt.Printf("bitslice bench: %d entries x %d codecs, scalar %.1f ms, plane %.1f ms (%.2fx), parity=%v -> %s\n",
		entries, len(cs), float64(scalarNs)/1e6, float64(planeNs)/1e6, rec.Metrics["speedup_bitslice"], parity, path)
	if !parity {
		return fmt.Errorf("delta-group and scalar-kernel results diverge")
	}
	return nil
}
