package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"busenc/internal/bench"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/obs"
)

// Engine benchmark: times a Table 4 regeneration on the seed-style
// reference path (fresh stream generation, one virtual Encode/Drive/
// Decode per entry, full verification) against the batched evaluation
// engine (memoized streams, bulk encode kernels, aggregate counting,
// sampled verification), checks the two agree transition-for-transition,
// and writes the numbers as JSON so successive PRs can track the
// trajectory. The record schema lives in internal/bench, shared with
// cmd/benchguard, which enforces the checks each producer declares. The
// top-level timings are measured serially (GOMAXPROCS pinned to 1) so
// successive records stay comparable across machines; the parallel.*
// metrics repeat the warm engine run at the process's default
// GOMAXPROCS so the bounded scheduler's speedup is visible in the
// trajectory.

// referenceTable4 rebuilds Table 4 the way the seed implementation did:
// streams generated from scratch and every codec run entry-at-a-time on
// the fully verified slow path. Row totals are returned for the parity
// check.
func referenceTable4(src core.Source) (map[string][]int64, error) {
	sets, err := core.GenerateStreams(src)
	if err != nil {
		return nil, err
	}
	totals := make(map[string][]int64, len(sets))
	for _, set := range sets {
		s := set.Muxed
		s.Analyze(uint64(core.Stride))
		bin, err := codec.Run(codec.MustNew("binary", core.Width, codec.Options{}), s)
		if err != nil {
			return nil, err
		}
		row := []int64{bin.Transitions}
		for _, code := range core.ExistingCodes {
			res, err := codec.Run(codec.MustNew(code, core.Width, core.DefaultOptions), s)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Transitions)
		}
		totals[set.Name] = row
	}
	return totals, nil
}

func engineTotals(tab *core.Table) map[string][]int64 {
	totals := make(map[string][]int64, len(tab.Rows))
	for _, r := range tab.Rows {
		row := []int64{r.Binary}
		for _, c := range r.Cols {
			row = append(row, c.Transitions)
		}
		totals[r.Bench] = row
	}
	return totals
}

func sameTotals(a, b map[string][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// bestOf runs f iters times (at least once) and returns the last
// result with the fastest wall time: the best-of-N warm timing every
// record reports.
func bestOf[T any](iters int, f func() (T, error)) (T, int64, error) {
	var last T
	best := int64(0)
	for i := 0; i < max(iters, 1); i++ {
		got, ns, err := timed(f)
		if err != nil {
			return last, 0, err
		}
		if best == 0 || ns < best {
			best = ns
		}
		last = got
	}
	return last, best, nil
}

// bestOfEach is bestOf over two functions that take turns, a then b,
// iters times each (at least once): it returns each side's last result
// and fastest wall time. Taking turns exposes both sides of a ratio to
// the same drift of the machine, where timing all of a before all of b
// would put the drift between the two into the ratio.
func bestOfEach[T any](iters int, a, b func() (T, error)) (ra, rb T, na, nb int64, err error) {
	for i := 0; i < max(iters, 1); i++ {
		ga, ta, err := timed(a)
		if err != nil {
			return ra, rb, 0, 0, err
		}
		gb, tb, err := timed(b)
		if err != nil {
			return ra, rb, 0, 0, err
		}
		if na == 0 || ta < na {
			na = ta
		}
		if nb == 0 || tb < nb {
			nb = tb
		}
		ra, rb = ga, gb
	}
	return ra, rb, na, nb, nil
}

// timed runs f once and returns its result and wall time in ns.
func timed[T any](f func() (T, error)) (T, int64, error) {
	t := time.Now()
	got, err := f()
	return got, time.Since(t).Nanoseconds(), err
}

// sameResults reports whether two result lists agree on every Result
// field, per-line counts included.
func sameResults(a, b []codec.Result) bool {
	return slices.EqualFunc(a, b, func(x, y codec.Result) bool {
		return x.Codec == y.Codec && x.Stream == y.Stream && x.BusWidth == y.BusWidth &&
			x.Transitions == y.Transitions && x.Cycles == y.Cycles &&
			x.MaxPerCycle == y.MaxPerCycle && slices.Equal(x.PerLine, y.PerLine)
	})
}

// benchEngine runs the comparison and writes the JSON record to path.
func benchEngine(path string, src core.Source, warmIters int) (err error) {
	root := obs.StartSpan("bench.engine", obs.StageBench)
	defer func() { root.EndErr(err) }()

	// Serial measurements: pin to one proc so records are comparable
	// across machines and across the trajectory.
	defaultProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(defaultProcs)
	psp := root.Child("bench.reference", obs.StageBench)
	t0 := time.Now()
	refTotals, err := referenceTable4(src)
	refNs := time.Since(t0).Nanoseconds()
	if psp.EndErr(err); err != nil {
		return err
	}

	psp = root.Child("bench.engine_cold", obs.StageBench)
	t0 = time.Now()
	tab, err := core.Table4(src)
	coldNs := time.Since(t0).Nanoseconds()
	if psp.EndErr(err); err != nil {
		return err
	}
	parity := sameTotals(refTotals, engineTotals(tab))

	table4 := func() (*core.Table, error) { return core.Table4(src) }
	psp = root.Child("bench.engine_warm", obs.StageBench)
	_, warmNs, err := bestOf(warmIters, table4)
	if psp.EndErr(err); err != nil {
		return err
	}

	// Parallel warm run at the default GOMAXPROCS (the caches are warm
	// either way, so this isolates the scheduler's gain).
	runtime.GOMAXPROCS(defaultProcs)
	psp = root.Child("bench.engine_warm_parallel", obs.StageBench)
	_, parWarmNs, err := bestOf(warmIters, table4)
	if psp.EndErr(err); err != nil {
		return err
	}

	rec := bench.New("Table4", codec.RunChunkLen)
	rec.Info = map[string]any{"source": string(src)}
	rec.Metrics = map[string]float64{
		"gomaxprocs":     1, // the serial measurement
		"reference_ns":   float64(refNs),
		"engine_cold_ns": float64(coldNs), // first engine call, caches empty
		"engine_warm_ns": float64(warmNs), // fastest warm engine call
		"warm_iters":     float64(warmIters),
		"speedup_cold":   float64(refNs) / float64(coldNs),
		"speedup_warm":   float64(refNs) / float64(warmNs),
		"parity":         bench.Bool(parity), // engine totals == reference totals

		"parallel.gomaxprocs":             float64(defaultProcs),
		"parallel.engine_warm_ns":         float64(parWarmNs),
		"parallel.speedup_warm":           float64(refNs) / float64(parWarmNs),
		"parallel.speedup_vs_serial_warm": float64(warmNs) / float64(parWarmNs),
	}
	rec.Checks = []bench.Check{
		{Metric: "speedup_warm", Kind: bench.Ratio, Bound: bench.Band},
		{Metric: "parity", Kind: bench.Invariant, Bound: 1},
	}
	if err := bench.Write(path, rec); err != nil {
		return err
	}
	fmt.Printf("engine bench (%s source): reference %.1f ms, engine cold %.1f ms (%.1fx), warm %.1f ms (%.1fx), warm@%d procs %.1f ms (%.2fx vs serial), parity=%v -> %s\n",
		src, float64(refNs)/1e6, float64(coldNs)/1e6, rec.Metrics["speedup_cold"],
		float64(warmNs)/1e6, rec.Metrics["speedup_warm"],
		defaultProcs, float64(parWarmNs)/1e6, rec.Metrics["parallel.speedup_vs_serial_warm"], parity, path)
	if !parity {
		return fmt.Errorf("engine and reference transition totals diverge")
	}
	return nil
}
