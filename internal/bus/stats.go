package bus

import "fmt"

// Cross-process accumulator transfer. Shard pricing inside one process
// merges *Bus values directly (Merge); the distributed sweep in
// internal/dist prices shards in worker processes and ships their
// accumulators back as plain data. Stats is that wire form: it captures
// everything Merge consumes — totals, cycles, max-per-cycle, optional
// per-line counts, and the line state the next shard continues from —
// so FromStats(w, b.Stats()) reconstructs a bus that merges exactly
// like the original. Stats arrive from other processes, peers and
// journals, so FromStats refuses a snapshot that is impossible on its
// face.

// Stats is the serializable snapshot of a bus accumulator.
type Stats struct {
	Transitions int64   `json:"transitions"`
	Cycles      int64   `json:"cycles"`
	MaxPerCycle int     `json:"max_per_cycle"`
	PerLine     []int64 `json:"per_line,omitempty"`
	// Current and Driven carry the line state: the word left on the
	// lines after the last drive (or prime), and whether the lines hold
	// one at all.
	Current uint64 `json:"current"`
	Driven  bool   `json:"driven"`
}

// Stats returns a snapshot of the accumulated statistics and line state.
// The PerLine slice is a copy (nil for an aggregate-only bus).
func (b *Bus) Stats() Stats {
	return Stats{
		Transitions: b.total,
		Cycles:      b.cycles,
		MaxPerCycle: b.maxInWord,
		PerLine:     b.PerLine(),
		Current:     b.current,
		Driven:      b.driven,
	}
}

// FromStats reconstructs a bus of the given width from a snapshot. The
// result is per-line capable exactly when the snapshot carries per-line
// counts; it merges (and continues counting) identically to the bus the
// snapshot was taken from. A snapshot no bus of that width can produce
// is an error: a negative count, more lines toggling in one cycle than
// the bus has, or per-line counts that do not sum to the total.
func FromStats(width int, st Stats) (*Bus, error) {
	if st.PerLine != nil && len(st.PerLine) != width {
		return nil, fmt.Errorf("bus: stats carry %d per-line counts for width %d", len(st.PerLine), width)
	}
	if st.Transitions < 0 || st.Cycles < 0 || st.MaxPerCycle < 0 {
		return nil, fmt.Errorf("bus: stats carry a negative count (transitions %d, cycles %d, max per cycle %d)",
			st.Transitions, st.Cycles, st.MaxPerCycle)
	}
	if st.MaxPerCycle > width {
		return nil, fmt.Errorf("bus: stats carry %d transitions in one cycle on %d lines", st.MaxPerCycle, width)
	}
	if st.PerLine != nil {
		// Count down from the total, which cannot overflow the way a sum
		// of hostile counts can.
		left := st.Transitions
		for i, n := range st.PerLine {
			if n < 0 {
				return nil, fmt.Errorf("bus: stats carry a negative count %d on line %d", n, i)
			}
			if left -= n; left < 0 {
				break
			}
		}
		if left != 0 {
			return nil, fmt.Errorf("bus: stats carry per-line counts that do not sum to the %d transitions", st.Transitions)
		}
	}
	var b *Bus
	if st.PerLine != nil {
		b = New(width)
		copy(b.perLine, st.PerLine)
	} else {
		b = NewAggregate(width)
	}
	b.total = st.Transitions
	b.cycles = st.Cycles
	b.maxInWord = st.MaxPerCycle
	b.current = st.Current & b.mask
	b.driven = st.Driven
	return b, nil
}

// MergeSlots reduces per-shard accumulators deterministically: slots[k]
// holds shard k's bus, and the slots merge in ascending order into
// slots[0], which is returned. Empty input returns (nil, nil); a nil
// bus is rejected loudly rather than silently skipped, since it means a
// worker lost a shard.
func MergeSlots(slots []*Bus) (*Bus, error) {
	for k := range slots {
		if slots[k] == nil {
			return nil, fmt.Errorf("bus: merge slot %d is empty", k)
		}
	}
	if len(slots) == 0 {
		return nil, nil
	}
	merged := slots[0]
	for _, o := range slots[1:] {
		merged.Merge(o)
	}
	return merged, nil
}
