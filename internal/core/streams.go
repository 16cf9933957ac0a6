package core

import (
	"fmt"
	"sync"

	"busenc/internal/mips"
	"busenc/internal/mips/progs"
	"busenc/internal/obs"
	"busenc/internal/workload"
)

// Stream-suite memoization. Each of Table2..Table7 needs the same nine
// benchmark stream sets; regenerating them per table made a full cmd/paper
// run pay six stream generations (and six MIPS simulations of every
// program with -source mips). The suites are deterministic per source, so
// they are computed once per process and shared. Streams are treated as
// immutable after generation — nothing in this repository mutates
// trace.Stream entries once built.

type streamCacheEntry struct {
	once sync.Once
	sets []StreamSet
	err  error
}

var streamCache sync.Map // Source -> *streamCacheEntry

// Engine counters, kept in an explicit always-on obs registry (the
// events are once-per-process rare, so gating would only hide them):
// they make the memoization contract measurable ("each MIPS program is
// assembled and simulated exactly once per process") and show up in
// every metrics dump alongside the gated hot-path registry. The MIPS
// counters are written concurrently by the generation pool's workers,
// so they stay obs atomics: StreamEngineStats may be called while a
// suite is being generated.
var (
	engineReg  = obs.NewRegistry("engine")
	mipsRuns   = engineReg.Counter("engine.mips_runs")
	mipsCycles = engineReg.Counter("engine.mips_cycles")
)

// EngineStats reports cumulative work done by the stream layer since
// process start.
type EngineStats struct {
	// MIPSRuns is the number of benchmark programs assembled and simulated.
	MIPSRuns int64
	// MIPSCycles is the total number of simulated CPU cycles across those
	// runs (from mips.RunStats).
	MIPSCycles int64
}

// StreamEngineStats returns the current engine counters. It is safe to
// call concurrently with running evaluations.
func StreamEngineStats() EngineStats {
	return EngineStats{
		MIPSRuns:   mipsRuns.Value(),
		MIPSCycles: mipsCycles.Value(),
	}
}

// Streams returns the nine-benchmark stream sets from the chosen source,
// memoized per source: the first call per source generates (bounded by
// the worker pool), subsequent calls share the same streams. Callers must
// treat the returned streams as read-only.
func Streams(src Source) ([]StreamSet, error) {
	v, _ := streamCache.LoadOrStore(src, &streamCacheEntry{})
	e := v.(*streamCacheEntry)
	e.once.Do(func() { e.sets, e.err = GenerateStreams(src) })
	if e.err != nil {
		return nil, e.err
	}
	// Copy the slice header so callers cannot reorder the cached sets.
	return append([]StreamSet(nil), e.sets...), nil
}

// GenerateStreams builds the nine-benchmark stream sets from scratch,
// bypassing the memoization cache. It is the generation backend of
// Streams and is exported for benchmarking the uncached path (cmd/paper
// -benchjson).
func GenerateStreams(src Source) ([]StreamSet, error) {
	switch src {
	case Synthetic:
		suite := workload.Suite()
		out := make([]StreamSet, len(suite))
		err := forEachN(len(suite), func(i int) error {
			b := suite[i]
			out[i] = StreamSet{Name: b.Name, Instr: b.Instr(), Data: b.Data(), Muxed: b.Muxed()}
			return nil
		})
		return out, err
	case MIPS:
		names := progs.PaperOrder()
		out := make([]StreamSet, len(names))
		err := forEachN(len(names), func(i int) error {
			name := names[i]
			b, err := progs.Get(name)
			if err != nil {
				return err
			}
			p, err := b.Assemble()
			if err != nil {
				return err
			}
			muxed, stats, err := mips.Run(p, name, b.MaxCycles)
			if err != nil {
				return err
			}
			// stats is not part of the table data, but it is the engine's
			// record of simulation work done — fold it into the counters.
			mipsRuns.Add(1)
			mipsCycles.Add(stats.Cycles)
			out[i] = StreamSet{
				Name:  name,
				Instr: muxed.InstrOnly(),
				Data:  muxed.DataOnly(),
				Muxed: muxed,
			}
			return nil
		})
		return out, err
	default:
		return nil, fmt.Errorf("core: unknown stream source %q", src)
	}
}
