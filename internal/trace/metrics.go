package trace

import (
	"io"
	"time"

	"busenc/internal/obs"
)

// Observability hooks for the streaming trace layer (see internal/obs).
// The handles live in the gated default registry: while metrics are
// disabled every handle is nil and each instrumented event costs one
// predictable branch; cmd binaries enable the registry at startup.
//
// Instrumented sites:
//
//   - ChunkPool.Get / Chunk.Release — pool gets, misses (a miss is a
//     fresh allocation via the pool's New), and the in-use occupancy
//     gauge (chunks handed out and not yet fully released);
//   - textChunkReader.Next / binaryChunkReader.Next /
//     memChunkReader.Next — chunks and entries parsed, parse errors
//     (first occurrence only; sticky repeats are not recounted), and
//     per-Next latency;
//   - MapBytes / OpenFile zero-copy routing — views opened, opens that
//     fell back to a heap read, and bytes currently mapped (raised on
//     map, lowered on close).
type traceMetrics struct {
	chunksRead    *obs.Counter   // trace.chunks_read
	entriesRead   *obs.Counter   // trace.entries_read
	parseErrors   *obs.Counter   // trace.parse_errors
	poolGets      *obs.Counter   // trace.pool.gets
	poolMisses    *obs.Counter   // trace.pool.misses
	poolInUse     *obs.Gauge     // trace.pool.in_use
	readNs        *obs.Histogram // trace.chunk_read_ns
	mmapOpens     *obs.Counter   // trace.mmap.opens
	mmapFallbacks *obs.Counter   // trace.mmap.fallback_reads
	mmapBytes     *obs.Gauge     // trace.mmap.bytes_mapped
}

var metricsBinding = obs.NewBinding(func() *traceMetrics {
	return &traceMetrics{
		chunksRead:    obs.GetCounter("trace.chunks_read"),
		entriesRead:   obs.GetCounter("trace.entries_read"),
		parseErrors:   obs.GetCounter("trace.parse_errors"),
		poolGets:      obs.GetCounter("trace.pool.gets"),
		poolMisses:    obs.GetCounter("trace.pool.misses"),
		poolInUse:     obs.GetGauge("trace.pool.in_use"),
		readNs:        obs.GetHistogram("trace.chunk_read_ns"),
		mmapOpens:     obs.GetCounter("trace.mmap.opens"),
		mmapFallbacks: obs.GetCounter("trace.mmap.fallback_reads"),
		mmapBytes:     obs.GetGauge("trace.mmap.bytes_mapped"),
	}
})

func metrics() *traceMetrics { return metricsBinding.Get() }

// recordMmapOpen counts one zero-copy open of n bytes; fallback marks
// the read-into-memory path (no mapping to account for).
func recordMmapOpen(n int64, fallback bool) {
	m := metrics()
	m.mmapOpens.Inc()
	if fallback {
		m.mmapFallbacks.Inc()
	} else {
		m.mmapBytes.Add(n)
	}
}

// observeNext wraps one parser Next call with chunk/entry/error/latency
// accounting and a read-stage span (stream and chunk index attached, so
// the flight recorder attributes parse latency to a specific chunk).
// sticky reports whether the reader was already in a terminal state, so
// repeated returns of the same parse error are counted once.
func observeNext(sticky bool, stream string, chunk int, next func() (*Chunk, error)) (*Chunk, error) {
	m := metrics()
	sp := obs.StartSpan("trace.next", obs.StageRead).WithStream(stream).WithChunk(chunk)
	var t0 time.Time
	if m.readNs != nil {
		t0 = time.Now()
	}
	ch, err := next()
	if m.readNs != nil {
		m.readNs.Observe(time.Since(t0).Nanoseconds())
	}
	if err == nil {
		m.chunksRead.Inc()
		m.entriesRead.Add(int64(ch.Len()))
		sp.End()
	} else {
		if err != io.EOF && !sticky {
			m.parseErrors.Inc()
		}
		if err == io.EOF {
			sp.End() // end-of-stream is a normal read, not a failure
		} else {
			sp.EndErr(err)
		}
	}
	return ch, err
}
