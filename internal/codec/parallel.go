package codec

import (
	"runtime"
	"sync"
	"time"

	"busenc/internal/bus"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Shard-parallel stream pricing. Encoder state chains entry-to-entry,
// so a naive split of a stream across workers is wrong for every code
// except binary. RunParallel splits the stream into P contiguous shards
// anyway and makes the split exact by reconstructing each shard's
// encoder state at its boundary:
//
//   - Seeder codecs (state is a function of the previous symbol alone)
//     get their boundary state in O(1) from the last pre-boundary
//     symbol;
//   - every other StateCodec gets it from one sequential state-only
//     sweep — a pass that runs the batch kernel into a discarded
//     scratch buffer (no bus counting, no verification) and captures a
//     Snapshot at each shard boundary. The sweep costs one encode pass
//     over the prefix, which bounds the theoretical speedup for sweep
//     codecs at roughly 2x (encode once to seed, once to price) —
//     still worthwhile because counting, verification and the Result
//     bookkeeping all parallelize, and because EvaluateParallel runs
//     many codecs' sweeps concurrently.
//
// Each shard worker then runs PriceShard: its Pricer re-encodes the
// single entry just before its boundary (producing the exact word the
// sequential run drove last), primes its private bus with it
// (bus.Prime: state only, no cycle), and prices the shard. The
// reduction is deterministic: results land in a fixed slice slot per
// shard, buses merge in ascending shard order (bus.Merge), and the
// lowest shard's error wins — no atomics or locks anywhere in the hot
// loop. parallel_test.go pins RunParallel == Run for every registered
// codec across shard counts {1,2,3,16}, non-dividing stream lengths and
// adversarial cut positions.

// ParallelOpts tunes RunParallel.
type ParallelOpts struct {
	// Shards is the number of contiguous shards P; <= 0 means
	// GOMAXPROCS. The effective count is clamped so every shard has at
	// least MinShardLen entries; 1 delegates to RunFast.
	Shards int
	// Verify selects decode round-trip checking. Shard 0 verifies its
	// prefix exactly as RunFast would (so VerifySampled checks the same
	// first entries); under VerifyFull, later shards also verify when
	// the codec's decoder can be seeded mid-stream (a Seeder), which
	// covers the stateless and previous-symbol codes. Prefix-dependent
	// decoders cannot be verified mid-stream without a full sequential
	// decode, so their coverage under VerifyFull is shard 0's range.
	Verify VerifyMode
	// PerLine requests per-line transition counts in Result.PerLine.
	PerLine bool
	// Kernel selects the pricing kernel per shard (KernelAuto by
	// default), with the same routing rules as RunOpts.Kernel.
	Kernel Kernel
}

// MinShardLen is the smallest shard worth a goroutine: below this the
// per-shard seeding and reduction overhead dominates the pricing work.
const MinShardLen = 512

// RunParallel is the shard-parallel counterpart of RunFast: identical
// Transitions, Cycles, MaxPerCycle and PerLine for every codec, with
// the stream priced on up to opts.Shards goroutines. Codecs whose
// encoders do not implement StateCodec fall back to RunFast, as do
// streams too short to shard.
func RunParallel(c Codec, s *trace.Stream, opts ParallelOpts) (Result, error) {
	p := opts.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if max := s.Len() / MinShardLen; p > max {
		p = max
	}
	probe := c.NewEncoder()
	if _, ok := probe.(StateCodec); !ok || p <= 1 {
		return RunFast(c, s, RunOpts{Verify: opts.Verify, PerLine: opts.PerLine, Kernel: opts.Kernel})
	}
	cuts := shardCuts(s.Len(), p)
	return runParallelCuts(c, s, cuts, opts)
}

// shardCuts returns p+1 ascending cut points over [0, n] with shard
// sizes as equal as possible (cuts[k] = k*n/p).
func shardCuts(n, p int) []int {
	cuts := make([]int, p+1)
	for k := 0; k <= p; k++ {
		cuts[k] = k * n / p
	}
	return cuts
}

// runParallelCuts prices the stream over the given cut points. Split
// from RunParallel so tests can force adversarial boundaries (length-1
// shards, cuts on chunk edges) that the equal-split policy never
// produces. Every shard must be non-empty: cuts must be strictly
// ascending from 0 to s.Len().
func runParallelCuts(c Codec, s *trace.Stream, cuts []int, opts ParallelOpts) (Result, error) {
	p := len(cuts) - 1
	entries := s.Entries
	root := obs.StartSpan("codec.run_parallel", obs.StageEval).WithCodec(c.Name()).WithStream(s.Name)

	// states[k] is the encoder state entering the boundary entry shard k
	// re-encodes to prime its bus (nil for Seeder codecs, which seed
	// from the entry before it instead).
	ssp := root.Child("codec.seed_sweep", obs.StageEncode)
	states, err := sweepStates(c, entries, cuts)
	ssp.EndErr(err)
	if err != nil {
		root.EndErr(err)
		return Result{}, err
	}
	var sweepEntries int64
	if states != nil {
		sweepEntries = int64(max(cuts[p-1]-1, 0))
	}

	ropts := RunOpts{Verify: opts.Verify, PerLine: opts.PerLine, Kernel: opts.Kernel}
	buses := make([]*bus.Bus, p)
	errs := make([]error, p)
	timed := parallelTimed()
	var wg sync.WaitGroup
	wg.Add(p)
	for k := 0; k < p; k++ {
		go func(k int) {
			defer wg.Done()
			ksp := root.Child("codec.shard", obs.StageEncode).WithShard(k)
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			bd := Boundary{First: k == 0}
			if k > 0 {
				lead := cuts[k] - 1
				bd.Prev = entries[lead]
				if lead > 0 {
					bd.SeedSym = SymbolOf(entries[lead-1])
					bd.HaveSeedSym = true
				}
				if states != nil {
					bd.State = states[k]
				}
			}
			b, err := PriceShard(c, entries[cuts[k]:cuts[k+1]], bd, cuts[k], ropts)
			if timed {
				RecordShard(time.Since(t0).Nanoseconds())
			}
			ksp.EndErr(err)
			buses[k], errs[k] = b, err
		}(k)
	}
	wg.Wait()
	msp := root.Child("codec.merge", obs.StageMerge)
	merged, err := bus.MergeSlots(buses, errs)
	msp.EndErr(err)
	root.EndErr(err)
	if err != nil {
		return Result{}, err
	}
	RecordParallel(c.Name(), p, sweepEntries)
	RecordRun(c.Name(), int64(len(entries)), merged.Transitions())
	return newResult(c, s.Name, merged), nil
}
