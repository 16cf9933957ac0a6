package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"busenc/internal/bench"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Streaming pipeline benchmark: serialize a large synthetic muxed trace
// to disk, then price all seven paper codecs over it twice — once by
// materializing the trace and running the batched engine per codec, and
// once through the single-pass streaming fan-out — and record wall
// times and allocation deltas as JSON. The allocation delta is the
// pipeline's headline: the materialized path allocates proportionally
// to trace length, the streaming path stays flat (pooled chunks +
// bounded channels).

// timedAlloc runs f between two GC-stabilized memory readings and
// returns its wall time and the bytes allocated while it ran.
func timedAlloc(f func() error) (int64, uint64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	ns := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	return ns, m1.TotalAlloc - m0.TotalAlloc, err
}

// buildBenchTrace replicates the reference muxed stream up to the
// requested entry count so the trace is large without new generators.
func buildBenchTrace(entries int) *trace.Stream {
	base := core.ReferenceMuxedStream(entries)
	s := trace.New("stream-bench", core.Width)
	s.Entries = make([]trace.Entry, 0, entries)
	for len(s.Entries) < entries {
		n := entries - len(s.Entries)
		if n > base.Len() {
			n = base.Len()
		}
		s.Entries = append(s.Entries, base.Entries[:n]...)
	}
	return s
}

// benchStream runs the comparison over a trace of the given length and
// writes the JSON record to path.
func benchStream(path string, entries int) (err error) {
	sp := obs.StartSpan("bench.stream", obs.StageBench)
	defer func() { sp.EndErr(err) }()
	s := buildBenchTrace(entries)
	tmp, err := os.CreateTemp(filepath.Dir(path), "busenc-bench-*.bin")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath)
	if err := trace.WriteBinary(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(tmpPath)
	if err != nil {
		return err
	}
	s = nil // the benchmark must re-read from disk, not reuse the build

	codes := paperCodes

	// Materialized path: load the whole trace, then run every codec on
	// the batched engine concurrently (same parallelism as the fan-out,
	// so the comparison isolates memory strategy, not scheduling).
	matResults := make([]codec.Result, len(codes))
	matNs, matAlloc, err := timedAlloc(func() error {
		r, closer, err := trace.OpenFile(tmpPath, nil)
		if err != nil {
			return err
		}
		defer closer.Close()
		loaded, err := trace.ReadAll(r)
		if err != nil {
			return err
		}
		errs := make([]error, len(codes))
		var wg sync.WaitGroup
		wg.Add(len(codes))
		for i, code := range codes {
			go func(i int, code string) {
				defer wg.Done()
				res, err := codec.RunFast(codec.MustNew(code, core.Width, core.DefaultOptions), loaded, codec.RunOpts{Verify: codec.VerifySampled})
				matResults[i], errs[i] = res, err
			}(i, code)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Streaming path: one pass, bounded memory.
	var strResults []codec.Result
	strNs, strAlloc, err := timedAlloc(func() error {
		r, closer, err := trace.OpenFile(tmpPath, nil)
		if err != nil {
			return err
		}
		defer closer.Close()
		strResults, err = core.EvaluateStreaming(r, r.Width(), codes, core.DefaultOptions,
			core.FanoutConfig{Verify: codec.VerifySampled})
		return err
	})
	if err != nil {
		return err
	}

	parity := sameResults(matResults, strResults)

	rec := bench.New("StreamPipeline", trace.DefaultChunkLen)
	rec.Info = map[string]any{"codecs": codes}
	rec.Metrics = map[string]float64{
		"entries":      float64(entries),
		"file_bytes":   float64(fi.Size()),
		"fanout_depth": float64(core.DefaultFanoutDepth),
		"gomaxprocs":   float64(runtime.GOMAXPROCS(0)),

		"materialized_ns":          float64(matNs),
		"materialized_alloc_bytes": float64(matAlloc),
		"streaming_ns":             float64(strNs),
		"streaming_alloc_bytes":    float64(strAlloc),
		"speedup_streaming":        float64(matNs) / float64(strNs),
		"alloc_ratio":              float64(matAlloc) / float64(max(1, strAlloc)),
		"parity":                   bench.Bool(parity),
	}
	rec.Checks = []bench.Check{
		{Metric: "speedup_streaming", Kind: bench.Ratio, Bound: bench.Band},
		// The bounded-memory property collapsing by 2x fails even if
		// wall time holds.
		{Metric: "alloc_ratio", Kind: bench.Ratio, Bound: 0.5},
		{Metric: "parity", Kind: bench.Invariant, Bound: 1},
	}
	if err := bench.Write(path, rec); err != nil {
		return err
	}
	fmt.Printf("stream bench: %d entries (%.1f MB on disk), materialized %.1f ms / %.1f MB alloc, streaming %.1f ms / %.1f MB alloc (%.2fx time, %.0fx alloc), parity=%v -> %s\n",
		entries, float64(fi.Size())/1e6,
		float64(matNs)/1e6, float64(matAlloc)/1e6,
		float64(strNs)/1e6, float64(strAlloc)/1e6,
		rec.Metrics["speedup_streaming"], rec.Metrics["alloc_ratio"], parity, path)
	if !parity {
		return fmt.Errorf("streaming and materialized results diverge")
	}
	return nil
}
