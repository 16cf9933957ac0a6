package codec

import (
	"fmt"
	"reflect"
)

// Encoder state capture. Every encoder in the registry implements
// StateCodec, making its mutable state an explicit, transferable value:
// Snapshot returns an opaque deep copy and Restore installs one into any
// encoder instance built by the same Codec. That contract is what lets
// a Pricer seeded through Boundary.State (shard.go) price a shard with
// exactly the state the sequential run would have had at the shard
// boundary — the state_test.go property test and FuzzSnapshotSplit pin
// it for every registered code at arbitrary split points.
//
// Codecs whose state is a function of the previous symbol alone also
// implement Seeder: SeedFrom reconstructs the post-prefix state from the
// last prefix symbol in O(1), with no sequential sweep. Binary, Gray and
// Beach are stateless (SeedFrom is a no-op); Offset and IncXor keep only
// the previous masked address. The prefix-dependent codes — bus-invert
// (previous *encoded* word), the T0 family (reference registers and
// frozen bus lines), working-zone (zone registers and LRU ages) and
// adaptive (the move-to-front list) — cannot be seeded from one symbol
// and need a sequential state-only sweep instead (sweepStates).

// State is an opaque encoder-state value produced by Snapshot. It owns
// its memory: mutating the originating encoder after Snapshot must not
// change a captured State, and Restore must not alias the State into the
// target (so one State may seed several encoders).
type State any

// StateCodec is the capability interface for encoder state transfer.
type StateCodec interface {
	// Snapshot returns a deep copy of the encoder's mutable state.
	Snapshot() State
	// Restore installs a state captured from any encoder (or decoder,
	// for shared end types) of the same Codec.
	Restore(State)
}

// Seeder is the O(1) fast path of StateCodec: SeedFrom puts the
// encoder in exactly the state it would hold after encoding a sequence
// whose last symbol was prev. Only codecs whose state is a function of
// the previous symbol alone can implement it.
type Seeder interface {
	SeedFrom(prev Symbol)
}

// sizedState is implemented by encoders whose state carries register
// slices, so a boundary state with registers of the wrong size is
// refused instead of silently half-restored.
type sizedState interface {
	fits(State) bool
}

// checkState reports why st cannot be restored into enc, a fresh
// encoder of c: a state of another concrete type (Restore's type
// assertion would panic) or one whose registers do not fit. A Boundary
// is built by Seed's caller, so Seed checks its state instead of
// trusting it.
func checkState(c Codec, enc StateCodec, st State) error {
	if got, want := reflect.TypeOf(st), reflect.TypeOf(enc.Snapshot()); got != want {
		return fmt.Errorf("codec %s: boundary state is %s, want %s", c.Name(), stateName(got), stateName(want))
	}
	if sz, ok := enc.(sizedState); ok && !sz.fits(st) {
		return fmt.Errorf("codec %s: boundary state registers do not fit the codec", c.Name())
	}
	return nil
}

func stateName(t reflect.Type) string {
	if t == nil {
		return "no state"
	}
	return t.Name()
}
