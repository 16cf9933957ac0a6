package codec

import (
	"fmt"
	"math/bits"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

func init() {
	Register("adaptive", func(width int, opts Options) (Codec, error) {
		entries := opts.Entries
		if entries == 0 {
			entries = 16
			if entries > width {
				entries = width
			}
		}
		return NewAdaptive(width, entries)
	})
}

// Adaptive is a self-organizing-list code (EXTENSION — in the spirit of
// Mamidipaka, Hirschberg and Dutt's adaptive low-power address encoding):
// both ends of the bus maintain an identical move-to-front list of the
// most recent distinct addresses. When the new address is in the list, the
// encoder asserts the HIT line and transmits the entry's index as a
// one-hot pattern on the low lines while freezing the rest of the bus; a
// re-reference to a recent address then costs at most two payload
// transitions, and an immediate repeat costs zero. On a miss the raw
// address is transmitted and inserted at the front.
//
// The code targets temporal locality (repeated addresses — branch targets,
// spin loops, hot globals) rather than the spatial locality T0 exploits,
// so the two compose well across bus types.
type Adaptive struct {
	width   int
	entries int
	mask    uint64
	lowMask uint64
	hitBit  uint
}

// NewAdaptive returns an adaptive code over width lines with the given
// list size (at most width, so indices encode one-hot on the payload).
func NewAdaptive(width, entries int) (*Adaptive, error) {
	if err := checkWidth("adaptive", width, 1); err != nil {
		return nil, err
	}
	if entries <= 0 || entries > width {
		return nil, fmt.Errorf("codec adaptive: entries %d out of range (1..%d)", entries, width)
	}
	return &Adaptive{
		width:   width,
		entries: entries,
		mask:    bus.Mask(width),
		lowMask: bus.Mask(entries),
		hitBit:  uint(width),
	}, nil
}

// Name implements Codec.
func (a *Adaptive) Name() string { return "adaptive" }

// PayloadWidth implements Codec.
func (a *Adaptive) PayloadWidth() int { return a.width }

// BusWidth implements Codec.
func (a *Adaptive) BusWidth() int { return a.width + 1 }

// NewEncoder implements Codec.
func (a *Adaptive) NewEncoder() Encoder { return &adaptiveEnd{a: a} }

// NewDecoder implements Codec.
func (a *Adaptive) NewDecoder() Decoder { return &adaptiveEnd{a: a} }

// adaptiveEnd is the shared state machine: the MTF list evolves
// identically at both ends because every update is a function of
// information both ends have (the decoded address and hit index).
type adaptiveEnd struct {
	a    *Adaptive
	list []uint64
	prev uint64 // previous payload lines
}

func (e *adaptiveEnd) find(addr uint64) int {
	for i, v := range e.list {
		if v == addr {
			return i
		}
	}
	return -1
}

// touch applies the move-to-front update for a hit at index i.
func (e *adaptiveEnd) touch(i int) {
	v := e.list[i]
	copy(e.list[1:i+1], e.list[:i])
	e.list[0] = v
}

// insert pushes a new address at the front, evicting the oldest.
func (e *adaptiveEnd) insert(addr uint64) {
	if len(e.list) < e.a.entries {
		e.list = append(e.list, 0)
	}
	copy(e.list[1:], e.list[:len(e.list)-1])
	e.list[0] = addr
}

func (e *adaptiveEnd) Encode(s Symbol) uint64 {
	addr := s.Addr & e.a.mask
	if i := e.find(addr); i >= 0 {
		payload := (e.prev &^ e.a.lowMask) | 1<<uint(i)
		e.touch(i)
		e.prev = payload
		return payload | 1<<e.a.hitBit
	}
	e.insert(addr)
	e.prev = addr
	return addr
}

// Decode implements Decoder. A HIT word whose low lines name no listed
// entry cannot come off a fault-free bus; it decodes through the miss
// path, to a wrong but deterministic address.
func (e *adaptiveEnd) Decode(word uint64, _ bool) uint64 {
	payload := word & e.a.mask
	if word&(1<<e.a.hitBit) != 0 {
		if i := bits.TrailingZeros64(payload & e.a.lowMask); i < len(e.list) {
			addr := e.list[i]
			e.touch(i)
			e.prev = payload
			return addr
		}
	}
	e.insert(payload)
	e.prev = payload
	return payload
}

// The batch kernel keeps the move-to-front list in a ring: list entry
// j lives in slot (head+j) mod adaptiveRing, so a miss moves the head
// back one slot instead of shifting the list. The list holds at most
// entries <= width <= 63 addresses, so the slot a miss takes is always
// free. A counting filter over a hash of the listed addresses proves
// most misses without scanning the list; its counts never exceed the
// list length, so uint8 cannot overflow.
const (
	adaptiveRing       = 64
	adaptiveFilterBits = 10
)

// adaptiveSlot hashes an address to its counting-filter slot.
func adaptiveSlot(addr uint64) uint64 {
	return addr * 0x9e3779b97f4a7c15 >> (64 - adaptiveFilterBits)
}

// EncodeBatch implements BatchEncoder: the list is loaded into the ring
// at the start of the batch and written back at its end.
func (e *adaptiveEnd) EncodeBatch(addrs []uint64, _ []trace.Kind, out []uint64) {
	const ringMask = adaptiveRing - 1
	a := e.a
	mask, lowMask, hitMask := a.mask, a.lowMask, uint64(1)<<a.hitBit
	var ring [adaptiveRing]uint64
	var filter [1 << adaptiveFilterBits]uint8
	n := copy(ring[:], e.list)
	for _, v := range ring[:n] {
		filter[adaptiveSlot(v)]++
	}
	head, prev := 0, e.prev
	out = out[:len(addrs)]
	for i, addr := range addrs {
		addr &= mask
		slot := adaptiveSlot(addr)
		if filter[slot] != 0 {
			j := 0
			for j < n && ring[(head+j)&ringMask] != addr {
				j++
			}
			if j < n {
				payload := prev&^lowMask | 1<<uint(j)
				for k := j; k > 0; k-- {
					ring[(head+k)&ringMask] = ring[(head+k-1)&ringMask]
				}
				ring[head] = addr
				prev = payload
				out[i] = payload | hitMask
				continue
			}
		}
		head = (head - 1) & ringMask
		ring[head] = addr
		filter[slot]++
		if n < a.entries {
			n++
		} else {
			filter[adaptiveSlot(ring[(head+n)&ringMask])]--
		}
		prev = addr
		out[i] = addr
	}
	if cap(e.list) < a.entries {
		e.list = make([]uint64, 0, a.entries)
	}
	e.list = e.list[:0]
	for j := 0; j < n; j++ {
		e.list = append(e.list, ring[(head+j)&ringMask])
	}
	e.prev = prev
}

func (e *adaptiveEnd) Reset() {
	e.list = e.list[:0]
	e.prev = 0
}

// adaptiveState is the Snapshot payload: a deep copy of the
// move-to-front list. Adaptive is a sweep codec — the list holds the
// prefix's recent distinct addresses.
type adaptiveState struct {
	list []uint64
	prev uint64
}

// Snapshot implements StateCodec.
func (e *adaptiveEnd) Snapshot() State {
	return adaptiveState{list: append([]uint64(nil), e.list...), prev: e.prev}
}

// Restore implements StateCodec.
func (e *adaptiveEnd) Restore(st State) {
	s := st.(adaptiveState)
	e.list = append(e.list[:0], s.list...)
	e.prev = s.prev
}

// fits implements sizedState: the list never outgrows its entries.
func (e *adaptiveEnd) fits(st State) bool { return len(st.(adaptiveState).list) <= e.a.entries }
