package codec

import (
	"fmt"

	"busenc/internal/trace"
)

// Pricing from a cut. A Pricer joins the stream mid-way through
// Pricer.Seed, given a Boundary value carrying everything that crossed
// the cut. The distributed workers (internal/dist) seed the Pricers
// NewPricers builds this way, but only ever cut Seeder codecs, so their
// boundaries carry no state: SeedSym, the symbol before the cut's
// boundary entry, fixes a Seeder's encoder in O(1). A prefix-dependent
// codec needs Boundary.State, the encoder state entering the boundary
// entry; sweepStates computes it with one sequential sweep.

// Boundary describes how a shard joins the stream at its left edge.
type Boundary struct {
	// First marks shard 0: the encoder starts fresh, no bus priming,
	// and verification behaves exactly as RunFast's would.
	First bool
	// Prev is the entry immediately before the shard (meaningful when
	// !First). The shard re-encodes it to recover the exact word the
	// sequential run left on the bus lines, and primes with that.
	Prev trace.Entry
	// SeedSym is the symbol of the entry before Prev and HaveSeedSym
	// its validity (false when Prev is the stream's first entry). It
	// seeds Seeder encoders — and seedable decoders under VerifyFull —
	// in O(1).
	SeedSym     Symbol
	HaveSeedSym bool
	// State, when non-nil, is the encoder state entering Prev (a
	// Snapshot). It takes precedence over SeedSym and is required for
	// prefix-dependent codecs.
	State State
	// Base is the global index of the shard's first entry, used only to
	// position mismatch reports identically to a sequential run.
	Base int
}

// BoundaryStates runs the state-only seeding sweep (sweepStates) and
// returns no bytes: no encoder state crosses a process, since
// internal/dist never cuts a prefix-dependent codec. cmd/busencbench
// times it as the cost such a cut would pay. The error is sweepStates'.
func BoundaryStates(c Codec, entries []trace.Entry, cuts []int) ([][]byte, error) {
	_, err := sweepStates(c, entries, cuts)
	return nil, err
}

// sweepStates runs the state-only seeding sweep: one sequential pass of
// the batch kernel over the stream prefix (nothing counted, nothing
// verified) capturing the encoder state entering each interior cut's
// boundary entry. cuts is the ascending cut-point slice (len =
// shards+1, cuts[0] = 0); the returned slice is parallel to it, with
// states[k] filled for interior cuts whose shard starts mid-stream
// (cuts[k] > 0) and nil elsewhere. Seeder codecs need no sweep (the
// boundary seeds in O(1) from the previous symbol): the result is nil.
func sweepStates(c Codec, entries []trace.Entry, cuts []int) ([]State, error) {
	sweep := c.NewEncoder()
	if _, ok := sweep.(Seeder); ok {
		return nil, nil
	}
	sc, ok := sweep.(StateCodec)
	if !ok {
		return nil, fmt.Errorf("codec %s: neither Seeder nor StateCodec; cannot shard", c.Name())
	}
	be := AsBatch(sweep)
	buf := runBufPool.Get().(*runBuf)
	defer runBufPool.Put(buf)
	states := make([]State, len(cuts))
	j := 0
	for k := 1; k < len(cuts)-1; k++ {
		if cuts[k] == 0 {
			continue
		}
		// Advance to the state entering entry cuts[k]-1 (the boundary
		// entry the shard re-encodes to prime its bus).
		for lead := cuts[k] - 1; j < lead; {
			m := min(lead-j, runChunk)
			addrs, kinds := buf.columns(entries[j : j+m])
			be.EncodeBatch(addrs, kinds, buf.words)
			j += m
		}
		states[k] = sc.Snapshot()
	}
	return states, nil
}
