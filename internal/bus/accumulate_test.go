package bus

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomWords(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// TestAggregateMatchesFull: the aggregate-only bus must report the same
// totals, cycles and max-per-cycle as the full bus, and nil per-line.
func TestAggregateMatchesFull(t *testing.T) {
	words := randomWords(5000, 1)
	full := New(33)
	agg := NewAggregate(33)
	for _, w := range words {
		if full.Drive(w) != agg.Drive(w) {
			t.Fatal("Drive return values diverge")
		}
	}
	if agg.Transitions() != full.Transitions() || agg.Cycles() != full.Cycles() || agg.MaxPerCycle() != full.MaxPerCycle() {
		t.Errorf("aggregate stats diverge: %d/%d/%d vs %d/%d/%d",
			agg.Transitions(), agg.Cycles(), agg.MaxPerCycle(),
			full.Transitions(), full.Cycles(), full.MaxPerCycle())
	}
	if agg.PerLine() != nil {
		t.Error("aggregate bus reported per-line counts")
	}
	if full.PerLine() == nil {
		t.Error("full bus lost its per-line counts")
	}
}

// TestAccumulateMatchesDrive: bulk accumulation in uneven chunks must be
// byte-identical to word-at-a-time Drive, in both modes.
func TestAccumulateMatchesDrive(t *testing.T) {
	words := randomWords(4096, 2)
	for _, aggOnly := range []bool{false, true} {
		mk := New
		if aggOnly {
			mk = NewAggregate
		}
		ref := mk(17)
		bulk := mk(17)
		for _, w := range words {
			ref.Drive(w)
		}
		for lo := 0; lo < len(words); {
			hi := lo + 1 + lo%509
			if hi > len(words) {
				hi = len(words)
			}
			bulk.Accumulate(words[lo:hi])
			lo = hi
		}
		if bulk.Transitions() != ref.Transitions() || bulk.Cycles() != ref.Cycles() || bulk.MaxPerCycle() != ref.MaxPerCycle() {
			t.Errorf("aggOnly=%v: bulk %d/%d/%d vs drive %d/%d/%d", aggOnly,
				bulk.Transitions(), bulk.Cycles(), bulk.MaxPerCycle(),
				ref.Transitions(), ref.Cycles(), ref.MaxPerCycle())
		}
		if !reflect.DeepEqual(bulk.PerLine(), ref.PerLine()) {
			t.Errorf("aggOnly=%v: per-line counts diverge", aggOnly)
		}
	}
}

// TestAccumulateEmptyAndFirst: empty chunks are no-ops and the first word
// of the first chunk establishes the reference with zero transitions.
func TestAccumulateEmptyAndFirst(t *testing.T) {
	b := NewAggregate(8)
	b.Accumulate(nil)
	if b.Cycles() != 0 {
		t.Error("empty chunk advanced the bus")
	}
	b.Accumulate([]uint64{0xFF})
	if b.Cycles() != 1 || b.Transitions() != 0 {
		t.Errorf("first drive: cycles %d transitions %d", b.Cycles(), b.Transitions())
	}
	b.Accumulate([]uint64{0x00})
	if b.Transitions() != 8 {
		t.Errorf("transitions = %d, want 8", b.Transitions())
	}
}
