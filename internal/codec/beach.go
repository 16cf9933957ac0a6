package codec

import (
	"math/bits"
	"sort"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("beach", func(width int, opts Options) (Codec, error) {
		return NewBeach(width, opts.Train)
	})
}

// Beach is a profile-driven XOR code in the spirit of the Beach solution
// (Benini et al., ISLPED'97, reference [7] of the paper) — an EXTENSION
// beyond the DATE'98 experiments, aimed at embedded systems that execute
// the same code repeatedly so the address stream can be profiled offline.
//
// This implementation uses the simplest member of the Beach family: from a
// training stream it measures per-line toggle counts T_i and joint toggle
// counts J_ij (cycles where lines i and j toggle together), then greedily
// selects disjoint line pairs (src, dst) maximizing the toggle reduction
// 2*J_ij - T_src obtained by transmitting line dst as dst XOR src. Pairs
// are disjoint, so the transformation is trivially invertible and the
// decoder is the same XOR network. Streams with strong block correlations
// (the Beach code's target) see substantial reductions; on uncorrelated
// streams no positive-gain pair exists and the code degenerates to binary.
type Beach struct {
	width int
	mask  uint64
	pairs []BeachPair
}

// BeachPair is one selected XOR transformation: line Dst is transmitted as
// Dst XOR Src.
type BeachPair struct {
	Src, Dst int
	// Gain is the predicted toggle-count reduction on the training stream.
	Gain int64
}

// NewBeach profiles the training stream and returns the resulting code.
// A nil or too-short training stream yields the identity transformation.
func NewBeach(width int, train *trace.Stream) (*Beach, error) {
	if err := checkWidth("beach", width, 0); err != nil {
		return nil, err
	}
	b := &Beach{width: width, mask: bus.Mask(width)}
	if train != nil && train.Len() >= 2 {
		b.pairs = profileBeach(width, train)
	}
	return b, nil
}

// Pairs returns the selected transformations, ordered by decreasing gain.
func (b *Beach) Pairs() []BeachPair {
	out := make([]BeachPair, len(b.pairs))
	copy(out, b.pairs)
	return out
}

func profileBeach(width int, train *trace.Stream) []BeachPair {
	toggles := make([]int64, width)
	joint := make([][]int64, width)
	for i := range joint {
		joint[i] = make([]int64, width)
	}
	prev := train.Entries[0].Addr
	for _, e := range train.Entries[1:] {
		diff := (prev ^ e.Addr) & bus.Mask(width)
		prev = e.Addr
		var set []int
		for d := diff; d != 0; d &= d - 1 {
			set = append(set, bits.TrailingZeros64(d))
		}
		for _, i := range set {
			toggles[i]++
		}
		for x := 0; x < len(set); x++ {
			for y := x + 1; y < len(set); y++ {
				joint[set[x]][set[y]]++
				joint[set[y]][set[x]]++
			}
		}
	}
	type cand struct {
		src, dst int
		gain     int64
	}
	var cands []cand
	for i := 0; i < width; i++ {
		for j := i + 1; j < width; j++ {
			// Transmitting dst as dst^src changes dst's toggles from T_dst
			// to T_src + T_dst - 2*J, a gain of 2*J - T_src. Orient the
			// pair so the cheaper line is the source.
			if g := 2*joint[i][j] - toggles[i]; g > 0 {
				cands = append(cands, cand{src: i, dst: j, gain: g})
			}
			if g := 2*joint[i][j] - toggles[j]; g > 0 {
				cands = append(cands, cand{src: j, dst: i, gain: g})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].gain != cands[b].gain {
			return cands[a].gain > cands[b].gain
		}
		if cands[a].dst != cands[b].dst {
			return cands[a].dst < cands[b].dst
		}
		return cands[a].src < cands[b].src
	})
	used := make([]bool, width)
	var pairs []BeachPair
	for _, c := range cands {
		if used[c.src] || used[c.dst] {
			continue
		}
		used[c.src], used[c.dst] = true, true
		pairs = append(pairs, BeachPair{Src: c.src, Dst: c.dst, Gain: c.gain})
	}
	return pairs
}

// Name implements Codec.
func (b *Beach) Name() string { return "beach" }

// PayloadWidth implements Codec.
func (b *Beach) PayloadWidth() int { return b.width }

// BusWidth implements Codec.
func (b *Beach) BusWidth() int { return b.width }

// NewEncoder implements Codec.
func (b *Beach) NewEncoder() Encoder { return beachEnd{b} }

// NewDecoder implements Codec.
func (b *Beach) NewDecoder() Decoder { return beachEnd{b} }

type beachEnd struct{ b *Beach }

// transform applies the XOR network. Because pairs are disjoint and the
// source lines pass through unchanged, the network is its own inverse.
func (e beachEnd) transform(v uint64) uint64 {
	out := v & e.b.mask
	for _, p := range e.b.pairs {
		out ^= (v >> uint(p.Src) & 1) << uint(p.Dst)
	}
	return out
}

func (e beachEnd) Encode(s Symbol) uint64            { return e.transform(s.Addr) }
func (e beachEnd) Decode(word uint64, _ bool) uint64 { return e.transform(word) }
func (e beachEnd) Reset()                            {}

// EncodeBatch implements BatchEncoder: transform with the mask and the
// pairs hoisted into locals. Untrained, the loop is the identity.
func (e beachEnd) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	mask, pairs := e.b.mask, e.b.pairs
	out = out[:len(addrs)]
	for i, a := range addrs {
		w := a & mask
		for _, p := range pairs {
			w ^= (a >> uint(p.Src) & 1) << uint(p.Dst)
		}
		out[i] = w
	}
}

// deltaStride implements deltaCodec: the XOR network predicts nothing.
func (b *Beach) deltaStride() uint64 { return 0 }

// deltaSlot implements deltaCodec: untrained, the network is the
// identity and prices as binary; trained, priceDelta prices it.
func (b *Beach) deltaSlot() int {
	if len(b.pairs) == 0 {
		return slotBin
	}
	return slotOwn
}

// priceDelta implements deltaPricer for a trained network; the delta
// group prices the untrained one, the identity, as binary. The network
// is linear, so the words of a and prev differ in the network applied
// to a ^ prev.
func (b *Beach) priceDelta(addrs []uint64, prev uint64, r *deltaRun) {
	mask, pairs := b.mask, b.pairs
	total, mx := 0, r.max
	for _, a := range addrs {
		a &= mask
		x := a ^ prev
		d := x
		for _, p := range pairs {
			d ^= (x >> uint(p.Src) & 1) << uint(p.Dst)
		}
		c := bits.OnesCount64(d)
		total += c
		mx = max(mx, c)
		prev = a
	}
	r.transitions += int64(total)
	r.max, r.last = mx, beachEnd{b}.transform(prev)
}

// Snapshot implements StateCodec; the XOR network is stateless.
func (e beachEnd) Snapshot() State { return nil }

// Restore implements StateCodec.
func (e beachEnd) Restore(State) {}

// SeedFrom implements Seeder: nothing to seed.
func (e beachEnd) SeedFrom(Symbol) {}
