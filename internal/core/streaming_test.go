package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

var streamingCodes = []string{"binary", "gray", "t0", "businvert", "t0bi", "dualt0", "dualt0bi"}

// TestEvaluateStreamingParity: one pass over a serialized trace must
// price every registered codec — the benchmark's muxed-stream request —
// exactly as the reference codec.Run does, per line too when asked. CI's
// race job and make test-stream run it ten times under -race: every
// batch kernel reads the broadcast chunks here, next to the delta group
// and the T0-family group.
func TestEvaluateStreamingParity(t *testing.T) {
	sets, err := Streams(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	s := sets[0].Muxed
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	codes := allCodes()
	want := make([]codec.Result, len(codes))
	for i, code := range codes {
		if want[i], err = codec.Run(codec.MustNew(code, Width, DefaultOptions), s); err != nil {
			t.Fatal(err)
		}
	}
	for _, perLine := range []bool{false, true} {
		r, err := trace.OpenBinary(bytes.NewReader(buf.Bytes()), "", trace.NewChunkPool(1024))
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateStreaming(r, Width, codes, DefaultOptions, FanoutConfig{Verify: codec.VerifySampled, PerLine: perLine})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(codes) {
			t.Fatalf("got %d results for %d codes", len(got), len(codes))
		}
		for i, code := range codes {
			if got[i].Codec != code {
				t.Errorf("result %d is %q, want %q (order must follow codes)", i, got[i].Codec, code)
			}
			if got[i].Transitions != want[i].Transitions || got[i].Cycles != want[i].Cycles || got[i].MaxPerCycle != want[i].MaxPerCycle {
				t.Errorf("%s: streaming %d/%d/%d != codec.Run %d/%d/%d", code,
					got[i].Transitions, got[i].Cycles, got[i].MaxPerCycle,
					want[i].Transitions, want[i].Cycles, want[i].MaxPerCycle)
			}
			if perLine && !slices.Equal(got[i].PerLine, want[i].PerLine) {
				t.Errorf("%s: streaming per-line %v != codec.Run %v", code, got[i].PerLine, want[i].PerLine)
			}
			if !perLine && got[i].PerLine != nil {
				t.Errorf("%s: per-line counts %v, none requested", code, got[i].PerLine)
			}
			if got[i].Stream != s.Name {
				t.Errorf("%s: stream name %q, want %q", code, got[i].Stream, s.Name)
			}
		}
	}
}

// allCodes is codec.Names() without the broken codecs this package's
// tests register: the codec list `-codes all` prices.
func allCodes() []string {
	var out []string
	for _, name := range codec.Names() {
		if name != "xbroken" && name != "xbrokenplane" {
			out = append(out, name)
		}
	}
	return out
}

func TestEvaluateStreamingPerLine(t *testing.T) {
	sets, err := Streams(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	s := sets[1].Instr
	got, err := EvaluateStreaming(s.Chunks(333), Width, []string{"t0"}, DefaultOptions, FanoutConfig{PerLine: true, Verify: codec.VerifyNone})
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.RunFast(codec.MustNew("t0", Width, DefaultOptions), s, codec.RunOpts{PerLine: true, Verify: codec.VerifyNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].PerLine) != len(want.PerLine) {
		t.Fatalf("per-line width %d != %d", len(got[0].PerLine), len(want.PerLine))
	}
	for i := range want.PerLine {
		if got[0].PerLine[i] != want.PerLine[i] {
			t.Fatalf("line %d: %d != %d", i, got[0].PerLine[i], want.PerLine[i])
		}
	}
}

func TestEvaluateStreamingUnknownCodec(t *testing.T) {
	s := trace.New("x", 32)
	s.Append(0, trace.Instr)
	if _, err := EvaluateStreaming(s.Chunks(0), Width, []string{"nope"}, DefaultOptions, FanoutConfig{}); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := EvaluateStreaming(s.Chunks(0), Width, nil, DefaultOptions, FanoutConfig{}); err == nil {
		t.Error("empty codec list accepted")
	}
}

// TestEvaluateStreamingZeroWidth: a zero width is the codecs' error,
// never a silent default to core.Width, so a trace declaring width 0
// cannot be priced on 32 lines.
func TestEvaluateStreamingZeroWidth(t *testing.T) {
	s := trace.New("x", 32)
	s.Append(0, trace.Instr)
	if res, err := EvaluateStreaming(s.Chunks(0), 0, []string{"binary", "t0"}, DefaultOptions, FanoutConfig{}); err == nil {
		t.Errorf("width 0 priced on %d lines", res[0].BusWidth)
	}
}

// erroringReader fails after a few chunks.
type erroringReader struct {
	inner trace.ChunkReader
	left  int
	err   error
}

func (e *erroringReader) Next() (*trace.Chunk, error) {
	if e.left <= 0 {
		return nil, e.err
	}
	e.left--
	return e.inner.Next()
}
func (e *erroringReader) Name() string { return e.inner.Name() }
func (e *erroringReader) Width() int   { return e.inner.Width() }

func TestEvaluateStreamingReaderError(t *testing.T) {
	sets, err := Streams(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("backend gone")
	r := &erroringReader{inner: sets[0].Muxed.Chunks(128), left: 5, err: sentinel}
	_, err = EvaluateStreaming(r, Width, streamingCodes, DefaultOptions, FanoutConfig{Verify: codec.VerifyNone, Depth: 2})
	if !errors.Is(err, sentinel) {
		t.Errorf("reader error not propagated: %v", err)
	}
}

// brokenStreamCodec always decodes zero, so verification must fail; the
// other workers keep draining and the producer must not deadlock even
// with a tiny channel depth. It embeds the Codec interface, which hides
// any group kernel, so it prices on its own scalar worker.
type brokenStreamCodec struct{ codec.Codec }

// brokenPlaneCodec is the same failure inside the delta group: it
// embeds *codec.Binary, so it keeps binary's delta kernel and routes
// into the group's Pricer alongside the other delta codecs.
type brokenPlaneCodec struct{ *codec.Binary }

type zeroDecoder struct{}

func (zeroDecoder) Decode(uint64, bool) uint64 { return 0xdead }
func (zeroDecoder) Reset()                     {}

func (b brokenStreamCodec) Name() string              { return "xbroken" }
func (b brokenStreamCodec) NewDecoder() codec.Decoder { return zeroDecoder{} }

func (b brokenPlaneCodec) Name() string              { return "xbrokenplane" }
func (b brokenPlaneCodec) NewDecoder() codec.Decoder { return zeroDecoder{} }

func init() {
	codec.Register("xbroken", func(width int, opts codec.Options) (codec.Codec, error) {
		inner, err := codec.New("binary", width, opts)
		if err != nil {
			return nil, err
		}
		return brokenStreamCodec{inner}, nil
	})
	codec.Register("xbrokenplane", func(width int, _ codec.Options) (codec.Codec, error) {
		inner, err := codec.NewBinary(width)
		if err != nil {
			return nil, err
		}
		return brokenPlaneCodec{inner}, nil
	})
}

// TestEvaluateStreamingVerificationFailure: a codec failing its round
// trip, on its own scalar worker or inside the delta group, in
// aggregate or per line, must fail the evaluation with an error naming
// it, without deadlocking the producer at depth 1 and without leaking a
// pooled chunk.
func TestEvaluateStreamingVerificationFailure(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	sets, err := Streams(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	s := sets[0].Muxed
	for _, tc := range []struct {
		broken  string
		delta   bool
		perLine bool
		codes   []string
	}{
		{"xbroken", false, false, []string{"binary", "xbroken", "t0"}},
		{"xbrokenplane", true, false, []string{"binary", "gray", "xbrokenplane", "t0", "incxor"}},
		{"xbrokenplane", true, true, []string{"binary", "gray", "xbrokenplane", "t0", "incxor"}},
		// Both fail at entry 0: the error follows codes order across the
		// delta group and the scalar workers.
		{"xbrokenplane", true, false, []string{"binary", "gray", "xbrokenplane", "xbroken"}},
		{"xbroken", false, true, []string{"binary", "xbroken", "gray", "xbrokenplane"}},
	} {
		cfg := FanoutConfig{Verify: codec.VerifySampled, PerLine: tc.perLine, Depth: 1}
		codecs := make([]codec.Codec, len(tc.codes))
		for i, code := range tc.codes {
			codecs[i] = codec.MustNew(code, Width, DefaultOptions)
		}
		groups, err := codec.Groups(codecs, codec.RunOpts{Verify: cfg.Verify, PerLine: cfg.PerLine})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if at := slices.Index(tc.codes, tc.broken); slices.Contains(g.At, at) && (g.Kind == codec.GroupDelta) != tc.delta {
				t.Fatalf("%s: routed to group kind %d, want the delta group %v", tc.broken, g.Kind, tc.delta)
			}
		}
		_, err = EvaluateStreaming(s.Chunks(64), Width, tc.codes, DefaultOptions, cfg)
		if err == nil {
			t.Fatalf("%s: broken decoder not detected", tc.broken)
		}
		if got := err.Error(); !contains(got, tc.broken+": round-trip mismatch at entry 0") {
			t.Errorf("%s: error %q does not name the failing codec and entry", tc.broken, got)
		}
		if got := obs.Default().Snapshot().Gauges["trace.pool.in_use"]; got != 0 {
			t.Errorf("%s: trace.pool.in_use = %d after the failed evaluation, want 0", tc.broken, got)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
