package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Streaming multi-codec fan-out. EvaluateStreaming reads a trace
// exactly once and prices every codec on concurrent workers:
// codec.NewPricers groups the codecs into Pricers — the delta codecs of
// one width and stride into one, whose DeltaSet prices them from
// address deltas, in aggregate or per line; the T0-family codecs of
// one width and stride into one, whose SeqSet builds each block's
// in-sequence masks once for all of them; and one per remaining codec —
// and a single producer parses chunks
// and broadcasts each pooled, reference-counted trace.Chunk (Retain
// once per extra worker) to one bounded channel per Pricer's worker,
// which feeds it to its Pricer and releases it. Backpressure is
// structural — when the slowest worker falls Depth chunks behind, the
// producer blocks, so peak memory is
//
//	O(Pricers × Depth × chunkLen)
//
// entries regardless of trace length. This is the evaluation path for
// traces too large to materialize (the ROADMAP's multi-GB serving
// scenario); for in-memory streams the batched RunFast remains the
// lower-overhead choice.
//
// A group runs all its codecs' work on one goroutine. That shares each
// block's work among them, but on a machine with more idle cores than
// codecs one worker per codec would overlap it; see DESIGN §6.1.

// DefaultFanoutDepth is the per-worker bounded channel depth: how many
// chunks a fast worker may run ahead of the slowest one.
const DefaultFanoutDepth = 4

// FanoutConfig tunes EvaluateStreaming.
type FanoutConfig struct {
	// Depth is the per-worker channel depth in chunks
	// (DefaultFanoutDepth if <= 0).
	Depth int
	// Verify selects decode round-trip checking per worker; the zero
	// value is codec.VerifyFull, mirroring RunOpts.
	Verify codec.VerifyMode
	// PerLine requests per-line transition counts in every Result.
	PerLine bool
	// Kernel selects the pricing kernel per worker (codec.KernelAuto by
	// default): the delta codecs price on the delta group kernel, two or
	// more T0-family codecs on the in-sequence group kernel, the rest on
	// their scalar batch kernels, under the routing rules of
	// codec.Groups.
	Kernel codec.Kernel
}

// streamWorker prices one Pricer's codecs over the broadcast chunks.
type streamWorker struct {
	name string // the Pricer's codec names, joined by "+"
	p    *codec.Pricer
	in   chan *trace.Chunk
}

// run drains the worker's channel; after a verification failure it
// keeps draining (releasing chunks) so the producer can never deadlock
// on a dead consumer, and the failure waits in the Pricer for
// codec.Collect. Channel waits are timed only while the histogram is
// live. parent is the evaluation's root span handle (a value, so the
// copy into each worker goroutine is race-free); consumed chunks record
// as its encode-stage children.
func (w *streamWorker) run(wg *sync.WaitGroup, m *fanoutMetrics, parent obs.SpanHandle) {
	defer wg.Done()
	timed := m.workerWaitNs != nil
	var err error
	for chunkN := 0; ; chunkN++ {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		ch, ok := <-w.in
		if timed {
			m.workerWaitNs.Observe(time.Since(t0).Nanoseconds())
		}
		if !ok {
			return
		}
		if err == nil {
			sp := parent.Child("core.worker", obs.StageEncode).WithCodec(w.name).WithChunk(chunkN)
			err = w.p.Consume(ch.Addrs, ch.Kinds)
			sp.EndErr(err)
		} else {
			m.drainEvents.Inc()
		}
		ch.Release()
	}
}

// EvaluateStreaming reads the trace once and evaluates every named
// codec, one worker goroutine per codec.Pricer (the benchmark's
// twelve-codec request runs four: the delta group, the T0-family group,
// and working-zone's and adaptive's batch kernels), returning results
// in the order of codes.
// width is the payload width for codec construction: pass r.Width() to
// honor the trace header; a width no codec takes, 0 included, is the
// codec's error. The reader is consumed to
// io.EOF; on any error (reader or codec verification) the already-read
// prefix is discarded and the first error in deterministic order
// (reader first, then codes order) is returned.
func EvaluateStreaming(r trace.ChunkReader, width int, codes []string, opts codec.Options, cfg FanoutConfig) ([]codec.Result, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("core: no codecs to evaluate")
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = DefaultFanoutDepth
	}
	root := obs.StartSpan("core.evaluate_streaming", obs.StageEval).WithStream(r.Name())
	codecs := make([]codec.Codec, len(codes))
	for i, code := range codes {
		c, err := codec.New(code, width, opts)
		if err != nil {
			root.EndErr(err)
			return nil, err
		}
		codecs[i] = c
	}
	pricers, err := codec.NewPricers(codecs, codec.RunOpts{Verify: cfg.Verify, PerLine: cfg.PerLine, Kernel: cfg.Kernel})
	if err != nil {
		root.EndErr(err)
		return nil, err
	}
	workers := make([]*streamWorker, len(pricers))
	for i, p := range pricers {
		workers[i] = &streamWorker{name: p.Name(), p: p, in: make(chan *trace.Chunk, depth)}
	}
	m := fanoutBinding.Get()
	m.depth.Set(int64(depth))
	m.workers.Set(int64(len(workers)))
	timed := m.sendWaitNs != nil
	var wg sync.WaitGroup
	wg.Add(len(workers))
	for _, w := range workers {
		go w.run(&wg, m, root)
	}
	var readErr error
	chunkN := 0
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		bsp := root.Child("core.broadcast", obs.StageRead).WithChunk(chunkN)
		chunkN++
		ch.Retain(len(workers) - 1)
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		for _, w := range workers {
			w.in <- ch
		}
		if timed {
			m.sendWaitNs.Observe(time.Since(t0).Nanoseconds())
		}
		m.broadcasts.Inc()
		bsp.End()
	}
	for _, w := range workers {
		close(w.in)
	}
	wg.Wait()
	if readErr != nil {
		root.EndErr(readErr)
		return nil, readErr
	}
	rsp := root.Child("core.reduce", obs.StageReduce)
	results, err := codec.Collect(pricers, r.Name())
	rsp.EndErr(err)
	root.EndErr(err)
	return results, err
}
