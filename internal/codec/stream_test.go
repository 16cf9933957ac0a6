package codec

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"busenc/internal/trace"
)

// runStream prices c over a chunked trace the way every streaming
// driver does: one Pricer fed each chunk's columns through Consume,
// carrying the sequential encoder/decoder state across chunk
// boundaries, with the reader consumed to io.EOF and each chunk
// released. Any reader error is returned as-is.
func runStream(c Codec, r trace.ChunkReader, opts RunOpts) (Result, error) {
	p, err := NewPricer(c, opts)
	for err == nil {
		var ch *trace.Chunk
		if ch, err = r.Next(); err != nil {
			break
		}
		err = p.Consume(ch.Addrs, ch.Kinds)
		ch.Release()
	}
	if err != io.EOF {
		return Result{}, err
	}
	return p.Result(r.Name()), nil
}

// TestRunStreamParity is the streaming pipeline's correctness contract
// and the chunk-boundary state-carry test: the same stream evaluated at
// chunk sizes 1, 7, 4096 and len(stream) must produce transition counts
// identical to the reference Run for every registered codec — a codec
// whose sequential state (T0 reference register, BI inversion bit, INC
// lines) failed to carry across a chunk boundary would diverge at size
// 1 or 7 immediately.
func TestRunStreamParity(t *testing.T) {
	streams := fixtureStreams(20000)
	train := streams[2].Slice(0, 2000)
	opts := Options{Stride: 4, Train: train}
	chunkSizes := func(s *trace.Stream) []int { return []int{1, 7, 4096, s.Len()} }
	for _, name := range Names() {
		for _, s := range streams {
			slow, err := Run(MustNew(name, 32, opts), s)
			if err != nil {
				t.Fatalf("%s/%s: reference Run: %v", name, s.Name, err)
			}
			for _, size := range chunkSizes(s) {
				got, err := runStream(MustNew(name, 32, opts), s.Chunks(size), RunOpts{Verify: VerifyFull, PerLine: true})
				if err != nil {
					t.Fatalf("%s/%s chunk %d: runStream: %v", name, s.Name, size, err)
				}
				if got.Transitions != slow.Transitions {
					t.Errorf("%s/%s chunk %d: transitions %d != %d", name, s.Name, size, got.Transitions, slow.Transitions)
				}
				if got.Cycles != slow.Cycles {
					t.Errorf("%s/%s chunk %d: cycles %d != %d", name, s.Name, size, got.Cycles, slow.Cycles)
				}
				if got.MaxPerCycle != slow.MaxPerCycle {
					t.Errorf("%s/%s chunk %d: maxPerCycle %d != %d", name, s.Name, size, got.MaxPerCycle, slow.MaxPerCycle)
				}
				if !reflect.DeepEqual(got.PerLine, slow.PerLine) {
					t.Errorf("%s/%s chunk %d: per-line counts diverge", name, s.Name, size)
				}
				if got.Stream != s.Name {
					t.Errorf("%s/%s chunk %d: stream name %q", name, s.Name, size, got.Stream)
				}
			}
		}
	}
}

// TestRunStreamFromSerializedTrace pins the full pipeline: a trace
// serialized to the binary and text formats and streamed back through
// the zero-allocation parsers must evaluate identically to the
// in-memory reference.
func TestRunStreamFromSerializedTrace(t *testing.T) {
	s := fixtureStreams(12000)[2]
	c := MustNew("dualt0bi", 32, Options{Stride: 4})
	want := MustRun(MustNew("dualt0bi", 32, Options{Stride: 4}), s)

	var bin, txt bytes.Buffer
	if err := trace.WriteBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&txt, s); err != nil {
		t.Fatal(err)
	}
	br, err := trace.OpenBinary(bytes.NewReader(bin.Bytes()), "", trace.NewChunkPool(512))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runStream(c, br, RunOpts{Verify: VerifySampled})
	if err != nil {
		t.Fatal(err)
	}
	if got.Transitions != want.Transitions || got.Cycles != want.Cycles {
		t.Errorf("binary stream: %d/%d != reference %d/%d", got.Transitions, got.Cycles, want.Transitions, want.Cycles)
	}
	tr, err := trace.OpenText(bytes.NewReader(txt.Bytes()), "", trace.NewChunkPool(512))
	if err != nil {
		t.Fatal(err)
	}
	got, err = runStream(MustNew("dualt0bi", 32, Options{Stride: 4}), tr, RunOpts{Verify: VerifySampled})
	if err != nil {
		t.Fatal(err)
	}
	if got.Transitions != want.Transitions || got.Cycles != want.Cycles {
		t.Errorf("text stream: %d/%d != reference %d/%d", got.Transitions, got.Cycles, want.Transitions, want.Cycles)
	}
}

// TestRunStreamDetectsMismatch mirrors the RunFast verification test on
// the chunked Pricer.
func TestRunStreamDetectsMismatch(t *testing.T) {
	s := fixtureStreams(2000)[0]
	c := brokenCodec{}
	if _, err := runStream(c, s.Chunks(256), RunOpts{Verify: VerifyFull}); err == nil {
		t.Error("VerifyFull missed a decoder bug")
	}
	if _, err := runStream(c, s.Chunks(256), RunOpts{Verify: VerifySampled}); err == nil {
		t.Error("VerifySampled missed a decoder bug in its prefix")
	}
	if _, err := runStream(c, s.Chunks(256), RunOpts{Verify: VerifyNone}); err != nil {
		t.Errorf("VerifyNone should not decode at all: %v", err)
	}
}

// failingReader yields a few chunks then an error, to check propagation.
type failingReader struct {
	inner trace.ChunkReader
	after int
	err   error
}

func (f *failingReader) Next() (*trace.Chunk, error) {
	if f.after <= 0 {
		return nil, f.err
	}
	f.after--
	return f.inner.Next()
}
func (f *failingReader) Name() string { return f.inner.Name() }
func (f *failingReader) Width() int   { return f.inner.Width() }

func TestRunStreamPropagatesReaderError(t *testing.T) {
	s := fixtureStreams(4000)[0]
	sentinel := errors.New("disk on fire")
	r := &failingReader{inner: s.Chunks(512), after: 3, err: sentinel}
	_, err := runStream(MustNew("t0", 32, Options{Stride: 4}), r, RunOpts{Verify: VerifyNone})
	if !errors.Is(err, sentinel) {
		t.Errorf("reader error not propagated: %v", err)
	}
}

func TestRunStreamEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		s := trace.New("tiny", 32)
		for i := 0; i < n; i++ {
			s.Append(uint64(0x1000+4*i), trace.Instr)
		}
		slow := MustRun(MustNew("t0", 32, Options{Stride: 4}), s)
		got, err := runStream(MustNew("t0", 32, Options{Stride: 4}), s.Chunks(2), RunOpts{PerLine: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Transitions != slow.Transitions || got.Cycles != slow.Cycles {
			t.Errorf("n=%d: stream %+v != slow %+v", n, got, slow)
		}
	}
}
