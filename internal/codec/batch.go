package codec

import (
	"fmt"
	"sync"

	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Batched evaluation engine. The paper's whole evaluation reduces to
// "encode a stream, count transitions": this file provides the fast path
// for that loop. Hot codecs implement BatchEncoder with hand-written
// chunk loops that keep their state in registers and read the chunk's
// structure-of-arrays columns (trace.Chunk's Addrs and Kinds) in place;
// the bus side counts aggregates with XOR+popcount over the chunk
// (bus.Accumulate); and decode-verification is sampled rather than
// exhaustive unless the caller asks otherwise. RunFast produces
// bit-identical Transitions, Cycles and MaxPerCycle to the reference Run
// for every codec — the parity test in batch_test.go enforces this for
// all registered codes.

// BatchEncoder is an optional fast-path interface an Encoder may
// implement: EncodeBatch encodes the entries whose addresses and kinds
// are addrs[i] and kinds[i] (SEL is kinds[i] == trace.Instr) into out,
// advancing the encoder state exactly as the equivalent sequence of
// Encode calls would. len(kinds) and len(out) must be at least
// len(addrs). Implementations hoist their state into locals for the
// duration of the batch and write it back at the end. They never write
// to addrs or kinds — in the streaming fan-out those are the broadcast
// chunk every worker reads — and never allocate.
type BatchEncoder interface {
	EncodeBatch(addrs []uint64, kinds []trace.Kind, out []uint64)
}

// AsBatch returns enc's batch fast path if it implements BatchEncoder, or
// a generic wrapper that loops over Encode otherwise. The wrapper shares
// enc's state, so batch and scalar calls may be freely interleaved.
func AsBatch(enc Encoder) BatchEncoder {
	if be, ok := enc.(BatchEncoder); ok {
		return be
	}
	return genericBatch{enc}
}

// genericBatch builds one Symbol per entry for encoders without a
// kernel of their own: offset and incxor outside a delta group, and
// test codecs.
type genericBatch struct{ enc Encoder }

func (g genericBatch) EncodeBatch(addrs []uint64, kinds []trace.Kind, out []uint64) {
	for i, a := range addrs {
		out[i] = g.enc.Encode(Symbol{Addr: a, Sel: kinds[i] == trace.Instr})
	}
}

// VerifyMode selects how much decode round-trip checking RunFast does.
type VerifyMode int

const (
	// VerifyFull decodes and checks every entry — the reference behavior
	// of Run. This is the zero value, so RunOpts{} is as safe as Run.
	VerifyFull VerifyMode = iota
	// VerifySampled decodes and checks only the first VerifySampleLen
	// entries, then stops running the decoder. Decoder state depends on
	// every prior word, so a prefix is the only subset that can be checked
	// without paying for a full decode; it still catches systematic codec
	// bugs while keeping the hot loop encode-and-count only.
	VerifySampled
	// VerifyNone skips decode checking entirely.
	VerifyNone
)

// VerifySampleLen is the number of leading entries VerifySampled checks.
const VerifySampleLen = 1024

// Kernel selects the pricing kernel the RunFast family uses.
type Kernel int

const (
	// KernelAuto picks the fastest kernel the verify mode permits
	// (VerifyFull needs every encoded word and so forces the scalar
	// path). Short of VerifyFull, NewPricers prices the delta codecs
	// (binary, gray, offset, incxor, businvert, beach) of one payload
	// width and stride in one delta group, in aggregate or per line,
	// except that a lone one counting in aggregate keeps its own batch
	// kernel where it has one; two or more T0-family codecs of one width
	// and stride in one T0-family group; and working-zone without
	// writing words when per-line counts are off. This is the zero
	// value: eligible codecs get the fast kernels without callers opting
	// in, and parity tests pin every path bit-identical to the scalar
	// one.
	KernelAuto Kernel = iota
	// KernelScalar forces the word-at-a-time scalar path: every word is
	// written and counted by bus.Accumulate.
	KernelScalar
)

// String names the kernel for flags and error messages.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// ParseKernel maps a flag or query-parameter value to a Kernel. The
// empty string means KernelAuto, matching the zero value.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "scalar":
		return KernelScalar, nil
	}
	return KernelAuto, fmt.Errorf("codec: unknown kernel %q (want auto or scalar)", s)
}

// RunOpts tunes the RunFast evaluation path.
type RunOpts struct {
	// Verify selects the decode round-trip checking mode.
	Verify VerifyMode
	// PerLine requests per-line transition counts in Result.PerLine. When
	// false (the default) the counting loop is aggregate-only and
	// Result.PerLine is nil.
	PerLine bool
	// Kernel selects the pricing kernel (KernelAuto by default).
	Kernel Kernel
}

// Check refuses options whose kernel or verify mode names none, as
// one decoded from a number can (a dist job frame carries both as
// integers). NewPricers checks its options with it.
func (o RunOpts) Check() error {
	if o.Kernel != KernelAuto && o.Kernel != KernelScalar {
		return fmt.Errorf("codec: kernel code %d names no kernel (want %d for auto or %d for scalar)", int(o.Kernel), KernelAuto, KernelScalar)
	}
	if o.Verify < VerifyFull || o.Verify > VerifyNone {
		return fmt.Errorf("codec: verify code %d names no verify mode (want %d to %d)", int(o.Verify), VerifyFull, VerifyNone)
	}
	return nil
}

// runChunk is the batch granularity: large enough to amortize the chunk
// setup, small enough that the column and word buffers stay
// cache-resident (4096 × 17 B ≈ 68 KiB).
const runChunk = 4096

// RunChunkLen is the engine batch granularity, exported for the
// chunk_len identity field of benchmark records (bench.Record).
const RunChunkLen = runChunk

// runBuf is a pooled batch buffer: the address and kind columns a
// []trace.Entry is split into, and the encoded words.
type runBuf struct {
	addrs []uint64
	kinds []trace.Kind
	words []uint64
}

var runBufPool = sync.Pool{New: func() any {
	return &runBuf{
		addrs: make([]uint64, runChunk),
		kinds: make([]trace.Kind, runChunk),
		words: make([]uint64, runChunk),
	}
}}

// columns splits at most runChunk entries into the buffer's address and
// kind columns.
func (buf *runBuf) columns(entries []trace.Entry) ([]uint64, []trace.Kind) {
	addrs, kinds := buf.addrs[:len(entries)], buf.kinds[:len(entries)]
	for i, e := range entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	return addrs, kinds
}

// RunFast is the batched counterpart of Run: it drives the stream through
// the codec in chunks, using the codec's BatchEncoder kernel when it has
// one, and counts transitions in bulk. Transitions, Cycles and
// MaxPerCycle are identical to Run's for every codec; PerLine is filled
// only when opts.PerLine is set, and decode verification follows
// opts.Verify. RunFast is safe for concurrent use across goroutines (each
// call has its own Pricer).
func RunFast(c Codec, s *trace.Stream, opts RunOpts) (Result, error) {
	root := obs.StartSpan("codec.run_fast", obs.StageEncode).WithCodec(c.Name()).WithStream(s.Name)
	p, err := NewPricer(c, opts)
	if err == nil {
		err = chunked(root, s.Entries, p.ConsumeEntries)
	}
	root.EndErr(err)
	if err != nil {
		return Result{}, err
	}
	return p.Result(s.Name), nil
}

// RunPlaneSet prices one materialized stream through several codecs in
// one pass of the Pricers NewPricers builds for them under opts, the
// delta codecs in one delta group, and returns their Results in codec
// order, bit-identical to per-codec RunFast. It keeps the name of the
// bit-sliced plane group it once ran for binary, gray, offset and
// incxor, because the benchmarks call it by that name
// (cmd/busencbench's codec.planeset layer and cmd/paper's bitslice
// record).
func RunPlaneSet(codecs []Codec, s *trace.Stream, opts RunOpts) ([]Result, error) {
	root := obs.StartSpan("codec.run_plane_set", obs.StageEncode).WithStream(s.Name)
	ps, err := NewPricers(codecs, opts)
	for i := 0; i < len(ps) && err == nil; i++ {
		err = chunked(root, s.Entries, ps[i].ConsumeEntries)
	}
	var results []Result
	if err == nil {
		results, err = Collect(ps, s.Name)
	}
	root.EndErr(err)
	return results, err
}

// chunked feeds entries to consume in runChunk batches, one codec.chunk
// span each, stopping at the first error.
func chunked(root obs.SpanHandle, entries []trace.Entry, consume func([]trace.Entry) error) error {
	for base := 0; base < len(entries); base += runChunk {
		csp := root.Child("codec.chunk", obs.StageEncode).WithChunk(base / runChunk)
		err := consume(entries[base:min(base+runChunk, len(entries))])
		csp.EndErr(err)
		if err != nil {
			return err
		}
	}
	return nil
}
