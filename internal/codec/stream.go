package codec

import (
	"io"

	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Streaming evaluation. RunStream is the chunk-iterator counterpart of
// RunFast: it drives a trace.ChunkReader through the codec's batch
// kernel without ever holding the full stream, carrying the sequential
// encoder/decoder state (T0 reference registers, BI inversion state,
// INC lines) across chunk boundaries simply by feeding every chunk to
// the same Pricer — EncodeBatch is specified to advance state
// exactly as the equivalent Encode calls would, so chunking is
// invisible to the codec. The kernel reads each chunk's Addrs and
// Kinds columns in place. Memory use is bounded by the reader's chunk
// pool plus one pooled word buffer; trace length only affects wall
// time. The parity test in stream_test.go pins RunStream
// bit-for-bit to the reference Run for every registered codec at chunk
// sizes 1, 7, 4096 and len(stream).

// RunStream evaluates the codec over a chunked trace, producing a
// Result identical to Run/RunFast on the materialized equivalent
// (Transitions, Cycles, MaxPerCycle; PerLine when opts.PerLine is set).
// It consumes r to io.EOF, releasing every chunk; any reader error is
// returned as-is. Verification follows opts.Verify; VerifyFull checks
// every entry just like Run.
func RunStream(c Codec, r trace.ChunkReader, opts RunOpts) (Result, error) {
	root := obs.StartSpan("codec.run_stream", obs.StageEncode).WithCodec(c.Name()).WithStream(r.Name())
	p, err := NewPricer(c, opts)
	for chunkN := 0; err == nil; chunkN++ {
		var ch *trace.Chunk
		if ch, err = r.Next(); err != nil {
			break
		}
		csp := root.Child("codec.chunk", obs.StageEncode).WithChunk(chunkN)
		err = p.Consume(ch.Addrs, ch.Kinds)
		ch.Release()
		csp.EndErr(err)
	}
	if err == io.EOF {
		err = nil
	}
	root.EndErr(err)
	if err != nil {
		return Result{}, err
	}
	return p.Result(r.Name()), nil
}

// MustRunStream is RunStream panicking on error; for benches and tables.
func MustRunStream(c Codec, r trace.ChunkReader, opts RunOpts) Result {
	res, err := RunStream(c, r, opts)
	if err != nil {
		panic(err)
	}
	return res
}
