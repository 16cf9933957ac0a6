package main

import (
	"fmt"
	"runtime"
	"time"

	"busenc/internal/bench"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/obs"
)

// Parallel-engine benchmark (-benchjson writes BENCH_parallel.json
// alongside the other records): prices the Table 4 stream suite three
// ways on the same machine and records the ratios:
//
//   - reference: the seed-style per-entry path (streams regenerated,
//     virtual Encode/Drive/Decode per entry, full verification), serial;
//   - serial warm: codec.RunFast codec-by-codec over pre-analyzed
//     streams at GOMAXPROCS=1 — the engine's sequential best;
//   - parallel warm: core.EvaluateParallel (shard-parallel pricing with
//     encoder state reseeding) at an elevated GOMAXPROCS.
//
// speedup_parallel = serial_warm / parallel_warm is the shard scaling
// itself; on a single-CPU machine the shards timeslice one core and the
// ratio degenerates to ~1x, which is why its band needs two CPUs and
// the record also carries speedup_vs_reference = reference /
// parallel_warm, a band the guard can enforce on any core count. Parity
// requires all three paths to agree transition-for-transition.

// benchParallel runs the comparison and writes BENCH_parallel.json.
// shards=0 lets EvaluateParallel pick GOMAXPROCS shards per codec.
func benchParallel(path string, src core.Source, shards, warmIters int) (err error) {
	sp := obs.StartSpan("bench.parallel", obs.StageBench)
	defer func() { sp.EndErr(err) }()
	defaultProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(defaultProcs)

	// Reference timing, serial, streams regenerated (seed semantics).
	runtime.GOMAXPROCS(1)
	t0 := time.Now()
	refTotals, err := referenceTable4(src)
	if err != nil {
		return err
	}
	refNs := time.Since(t0).Nanoseconds()

	// The suite both warm sweeps share: generated and analyzed once, so
	// the measurements isolate pricing, not stream construction.
	sets, err := core.GenerateStreams(src)
	if err != nil {
		return err
	}
	codes := append([]string{"binary"}, core.ExistingCodes...)
	for _, set := range sets {
		set.Muxed.Analyze(uint64(core.Stride))
	}

	serialSweep := func() (map[string][]int64, error) {
		totals := make(map[string][]int64, len(sets))
		for _, set := range sets {
			row := make([]int64, 0, len(codes))
			for _, code := range codes {
				res, err := codec.RunFast(codec.MustNew(code, core.Width, core.DefaultOptions),
					set.Muxed, codec.RunOpts{Verify: codec.VerifySampled})
				if err != nil {
					return nil, err
				}
				row = append(row, res.Transitions)
			}
			totals[set.Name] = row
		}
		return totals, nil
	}
	parallelSweep := func() (map[string][]int64, error) {
		totals := make(map[string][]int64, len(sets))
		for _, set := range sets {
			results, err := core.EvaluateParallel(set.Muxed, core.Width, codes, core.DefaultOptions,
				core.ParallelConfig{Shards: shards, Verify: codec.VerifySampled})
			if err != nil {
				return nil, err
			}
			row := make([]int64, 0, len(results))
			for _, res := range results {
				row = append(row, res.Transitions)
			}
			totals[set.Name] = row
		}
		return totals, nil
	}
	// Serial warm sweep stays pinned to one proc.
	serTotals, serNs, err := bestOf(warmIters, serialSweep)
	if err != nil {
		return err
	}

	// Parallel sweep at an elevated GOMAXPROCS so the shard workers can
	// actually spread; forced to at least 4 so records from small
	// machines still exercise the multi-shard path.
	parProcs := runtime.NumCPU()
	if parProcs < 4 {
		parProcs = 4
	}
	runtime.GOMAXPROCS(parProcs)
	parTotals, parNs, err := bestOf(warmIters, parallelSweep)
	if err != nil {
		return err
	}

	// The record carries the effective per-codec shard count, not the
	// flag value: shards=0 delegates to EvaluateParallel, which sizes
	// the fan-out by the GOMAXPROCS of the parallel measurement.
	effShards := shards
	if effShards <= 0 {
		effShards = parProcs
	}
	parity := sameTotals(refTotals, serTotals) && sameTotals(serTotals, parTotals)
	rec := bench.New("Table4Parallel", codec.RunChunkLen)
	rec.Info = map[string]any{"source": string(src), "codecs": codes}
	rec.Metrics = map[string]float64{
		"gomaxprocs": float64(parProcs), // procs of the parallel measurement
		"shards":     float64(effShards),
		"warm_iters": float64(warmIters),

		"reference_ns":         float64(refNs),
		"serial_warm_ns":       float64(serNs),
		"parallel_warm_ns":     float64(parNs),
		"speedup_parallel":     float64(serNs) / float64(parNs),
		"speedup_vs_reference": float64(refNs) / float64(parNs),
		"parity":               bench.Bool(parity),
	}
	rec.Checks = []bench.Check{
		// Shard scaling cannot show on one core: skipped, with a note,
		// below two CPUs.
		{Metric: "speedup_parallel", Kind: bench.Ratio, Bound: bench.Band, MinCPU: 2},
		{Metric: "speedup_vs_reference", Kind: bench.Ratio, Bound: bench.Band},
		{Metric: "parity", Kind: bench.Invariant, Bound: 1},
	}
	if err := bench.Write(path, rec); err != nil {
		return err
	}
	fmt.Printf("parallel bench (%s source, %d cpu): reference %.1f ms, serial warm %.1f ms, parallel warm@%d procs %.1f ms (%.2fx vs serial, %.1fx vs reference), parity=%v -> %s\n",
		src, rec.NumCPU, float64(refNs)/1e6, float64(serNs)/1e6,
		parProcs, float64(parNs)/1e6, rec.Metrics["speedup_parallel"], rec.Metrics["speedup_vs_reference"], parity, path)
	if !parity {
		return fmt.Errorf("parallel, serial and reference transition totals diverge")
	}
	return nil
}
