package codec

import (
	"fmt"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// Result summarizes one codec applied to one stream.
type Result struct {
	// Codec is the codec name.
	Codec string
	// Stream is the stream name.
	Stream string
	// BusWidth is the total number of driven lines (payload + redundant).
	BusWidth int
	// Transitions is the total line-transition count over the stream,
	// counted on all driven lines including the redundant ones.
	Transitions int64
	// Cycles is the number of bus words driven.
	Cycles int64
	// PerLine is a copy of the per-line transition counts.
	PerLine []int64
	// MaxPerCycle is the worst single-cycle transition count.
	MaxPerCycle int
}

// AvgPerCycle returns the mean transitions per clock cycle.
func (r Result) AvgPerCycle() float64 {
	if r.Cycles <= 1 {
		return 0
	}
	return float64(r.Transitions) / float64(r.Cycles-1)
}

// SavingsVs returns the fractional transition savings of r relative to the
// reference result (typically binary): 1 - T_r / T_ref.
func (r Result) SavingsVs(ref Result) float64 {
	if ref.Transitions == 0 {
		return 0
	}
	return 1 - float64(r.Transitions)/float64(ref.Transitions)
}

// Run drives the stream through the codec's encoder, accumulates bus
// transitions on all lines, and verifies on the fly that the decoder
// recovers every address (returning an error on the first mismatch, which
// would indicate a codec implementation bug).
//
// Run is the reference (slow) evaluation path: one virtual Encode, Drive
// and Decode call per entry, full per-line accounting, exhaustive
// verification. RunFast in batch.go is the batched engine that produces
// identical aggregate counts; Run is kept dispatch-per-entry on purpose
// so the parity tests compare two independent implementations.
func Run(c Codec, s *trace.Stream) (Result, error) {
	enc := c.NewEncoder()
	dec := c.NewDecoder()
	b := bus.New(c.BusWidth())
	mask := bus.Mask(c.PayloadWidth())
	for i, e := range s.Entries {
		word := enc.Encode(SymbolOf(e))
		b.Drive(word)
		got := dec.Decode(word, e.Sel())
		if got != e.Addr&mask {
			return Result{}, fmt.Errorf("codec %s: round-trip mismatch at entry %d: addr %#x decoded as %#x", c.Name(), i, e.Addr&mask, got)
		}
	}
	return newResult(c, s.Name, b), nil
}

// MustRun is Run panicking on round-trip failure; for benches and tables.
func MustRun(c Codec, s *trace.Stream) Result {
	r, err := Run(c, s)
	if err != nil {
		panic(err)
	}
	return r
}

// EncodeAll returns the encoded word sequence for a stream; useful for
// feeding gate-level simulations and for tests. It uses the codec's batch
// kernel when one exists, splitting the entries into pooled address and
// kind columns one batch at a time.
func EncodeAll(c Codec, s *trace.Stream) []uint64 {
	enc := AsBatch(c.NewEncoder())
	buf := runBufPool.Get().(*runBuf)
	defer runBufPool.Put(buf)
	out := make([]uint64, s.Len())
	for base := 0; base < len(out); base += runChunk {
		end := min(base+runChunk, len(out))
		addrs, kinds := buf.columns(s.Entries[base:end])
		enc.EncodeBatch(addrs, kinds, out[base:end])
	}
	return out
}

// Coupling classifies the encoded bus activity of a codec over a stream
// under the deep-submicron coupling model (see bus.CouplingStats) —
// EXTENSION beyond the paper's line-to-ground energy metric.
func Coupling(c Codec, s *trace.Stream) bus.CouplingStats {
	return bus.CouplingTransitions(EncodeAll(c, s), c.BusWidth())
}
