package bus

import "math/bits"

// Bulk transition counting. These are the hot kernels of the batched
// evaluation engine: a full table regeneration reduces to XOR+popcount
// over encoded word chunks, so the per-word virtual-call and bit-scan
// overhead of Drive must not appear on this path.

// Accumulate drives every word of the chunk onto the bus in order,
// updating the aggregate statistics. It is equivalent to calling Drive on
// each word but keeps the line state and counters in registers across the
// whole chunk; the per-line scan runs only when the bus tracks per-line
// counts (constructed with New rather than NewAggregate).
func (b *Bus) Accumulate(words []uint64) {
	if len(words) == 0 {
		return
	}
	i := 0
	if !b.driven {
		b.driven = true
		b.current = words[0] & b.mask
		b.cycles++
		i = 1
	}
	b.cycles += int64(len(words) - i)
	cur := b.current
	mask := b.mask
	total := b.total
	maxN := b.maxInWord
	if b.perLine == nil {
		for ; i < len(words); i++ {
			w := words[i] & mask
			n := bits.OnesCount64(cur ^ w)
			total += int64(n)
			if n > maxN {
				maxN = n
			}
			cur = w
		}
	} else {
		for ; i < len(words); i++ {
			w := words[i] & mask
			diff := cur ^ w
			if diff == 0 {
				// Repeated address: nothing toggles, so the popcount, the
				// max comparison and the per-line scan are all dead weight.
				// DMA/burst traces repeat addresses often enough that the
				// early exit is worth its branch (cur is unchanged too).
				continue
			}
			n := bits.OnesCount64(diff)
			total += int64(n)
			if n > maxN {
				maxN = n
			}
			for diff != 0 {
				j := bits.TrailingZeros64(diff)
				b.perLine[j]++
				diff &= diff - 1
			}
			cur = w
		}
	}
	b.current = cur
	b.total = total
	b.maxInWord = maxN
}
