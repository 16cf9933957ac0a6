package main

import (
	"fmt"
	"runtime"

	"busenc/internal/bench"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/obs"
)

// Bit-sliced kernel benchmark (-benchjson writes BENCH_bitslice.json
// alongside the other records): prices the seedable plane-codec subset
// (binary, gray, offset, incxor) over the same materialized trace two
// ways on the same machine —
//
//   - scalar: codec.RunFast per codec with Kernel forced to
//     KernelScalar, so the batch encode kernels materialize every word
//     and bus.Accumulate prices one entry at a time;
//   - plane: one codec.RunPlaneSet sweep, transposing each 64-address
//     block once and pricing all four codecs on the bit-sliced
//     XOR+popcount kernels, never materializing the word stream.
//
// Both sides request identical statistics (per-line counts, so parity
// covers Transitions, Cycles, PerLine and MaxPerCycle) with VerifyNone,
// isolating encode+count. speedup_bitslice = scalar_ns / plane_ns is a
// same-machine ratio, so the record declares an absolute 5x floor on it
// that binds on every regeneration, next to the usual relative band.

// bitsliceCodes is the seedable subset with plane-domain kernels.
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

	scalarResults, scalarNs, err := bestOf(warmIters, func() ([]codec.Result, error) {
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
	})
	if err != nil {
		return err
	}
	planeResults, planeNs, err := bestOf(warmIters, func() ([]codec.Result, error) {
		return codec.RunPlaneSet(cs, s, opts)
	})
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
		"plane_ns":         float64(planeNs),  // best warm RunPlaneSet sweep
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
		return fmt.Errorf("plane-kernel and scalar-kernel results diverge")
	}
	return nil
}
