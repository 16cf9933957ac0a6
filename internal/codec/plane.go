package codec

import (
	"fmt"

	"busenc/internal/bus"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Plane-domain evaluation. The bit-sliced bus kernels (internal/bus
// bitslice.go) price 64 encoded words per machine-word operation, but
// feeding them through EncodeBatch still materializes the encoded word
// stream and transposes it afterwards. For codecs whose transfer
// function is cheap in the transposed domain — binary (identity), gray
// (GF(2)-linear), offset (a lane-wise subtract) and incxor (a lane-wise
// add + XOR) — the encode itself can run on the bit-planes: one machine
// word per bus line per 64 addresses, so encode+count never sees the
// word stream at all. A PlaneSet additionally shares the single address
// transpose across every codec it prices, which is where the multi-codec
// sweeps (core.Evaluate*, cmd/paper) spend their time.

// PlaneBlock is one block of up to bus.BlockLen addresses presented in
// transposed form to a plane-domain encoder.
//
// A holds the raw (unmasked) address bit-planes: bit i of A[b] is bit b
// of the block's i-th address. Lanes >= N are zero. The scalar context
// a prefix-free encoder needs is carried alongside: PrevRaw is the raw
// address immediately preceding lane 0 (zero when First — no address
// precedes the block), Prev2 the address preceding lane N-1 (PrevRaw
// when N == 1), and Last the address in lane N-1.
type PlaneBlock struct {
	A       *[64]uint64
	N       int
	PrevRaw uint64
	Prev2   uint64
	Last    uint64
	First   bool
}

// PlaneEncoder is the optional plane-domain fast path of a Codec: the
// codec can encode a transposed address block directly into encoded
// bit-planes. Implementations must be stateless across calls — all
// sequential context arrives in the PlaneBlock — so one Codec value can
// serve concurrent runs, exactly like NewEncoder instances.
//
// EncodePlanes returns the encoded planes (either scratch, filled by
// the call, or blk.A for identity codes) and the encoded word of lane
// N-1, which the caller feeds to bus.AccumulateEncoded as the
// carried-out line state. Only planes [0, BusWidth()) of the result are
// meaningful; lanes >= blk.N may hold garbage (the bus masks them).
type PlaneEncoder interface {
	Codec
	EncodePlanes(blk *PlaneBlock, scratch *[64]uint64) (e *[64]uint64, last uint64)
}

// HasPlaneKernel reports whether c can be priced on the plane-domain
// path.
func HasPlaneKernel(c Codec) bool {
	_, ok := c.(PlaneEncoder)
	return ok
}

// PlaneSet prices one address stream through several plane-domain
// codecs at once, transposing each 64-address block exactly once and
// running every codec's plane kernel plus the fused bit-sliced counter
// over the shared planes. It is the plane-path analogue of running
// RunFast once per codec, with the gather+pack cost paid once instead
// of per codec. Not safe for concurrent use; build one per goroutine.
type PlaneSet struct {
	lanes   []planeLane
	prevRaw uint64
	first   bool
	a       [64]uint64
	scratch [64]uint64
	// blk is the block descriptor handed to every encoder. A field
	// rather than a consumeBlock local: the pointer escapes into the
	// PlaneEncoder interface call, and a local would be a fresh heap
	// allocation on every 64-address block.
	blk PlaneBlock
}

type planeLane struct {
	pe PlaneEncoder
	b  *bus.Bus
}

// NewPlaneSet builds a PlaneSet over the given codecs. Every codec must
// implement PlaneEncoder (check with HasPlaneKernel first); widths may
// differ. perLine selects per-line counting buses.
func NewPlaneSet(codecs []Codec, perLine bool) (*PlaneSet, error) {
	ps := &PlaneSet{first: true, lanes: make([]planeLane, len(codecs))}
	for i, c := range codecs {
		pe, ok := c.(PlaneEncoder)
		if !ok {
			return nil, errNoPlaneKernel(c)
		}
		var b *bus.Bus
		if perLine {
			b = bus.New(c.BusWidth())
		} else {
			b = bus.NewAggregate(c.BusWidth())
		}
		ps.lanes[i] = planeLane{pe: pe, b: b}
	}
	return ps, nil
}

func errNoPlaneKernel(c Codec) error {
	return &noPlaneKernelError{name: c.Name()}
}

type noPlaneKernelError struct{ name string }

func (e *noPlaneKernelError) Error() string {
	return "codec " + e.name + ": no plane-domain kernel"
}

// Prime seeds the set mid-stream, for shard pricing (Pricer.Seed): prevRaw
// is the raw address of the entry just before the next Consume call,
// and words[i] the encoded word codec i's bus carries at that point
// (the word the sequential run drove last). len(words) must equal the
// codec count.
func (ps *PlaneSet) Prime(prevRaw uint64, words []uint64) {
	ps.prevRaw = prevRaw
	ps.first = false
	for i := range ps.lanes {
		ps.lanes[i].b.Prime(words[i])
	}
}

// Consume prices the next addrs of the stream, in order, through every
// codec. Calls may chunk the stream arbitrarily: block boundaries do
// not affect any statistic, and sequential context carries across
// calls.
func (ps *PlaneSet) Consume(addrs []uint64) {
	for base := 0; base < len(addrs); base += bus.BlockLen {
		end := base + bus.BlockLen
		if end > len(addrs) {
			end = len(addrs)
		}
		ps.consumeBlock(addrs[base:end])
	}
	if len(addrs) > 0 {
		bus.RecordBitsliced(int64(len(addrs)))
	}
}

// ConsumeEntries prices trace entries directly, gathering each
// 64-address block into a stack buffer immediately before its
// transpose. Compared to Consume over a separately gathered address
// slice this streams the entry array exactly once and never writes an
// intermediate buffer to memory — on large materialized streams the
// evaluation is bandwidth-bound and that second pass is measurable.
// Statistics are identical to the equivalent Consume calls.
func (ps *PlaneSet) ConsumeEntries(entries []trace.Entry) {
	var block [bus.BlockLen]uint64
	for base := 0; base < len(entries); base += bus.BlockLen {
		end := base + bus.BlockLen
		if end > len(entries) {
			end = len(entries)
		}
		n := end - base
		chunk := entries[base:end]
		for i := range chunk {
			block[i] = chunk[i].Addr
		}
		ps.consumeBlock(block[:n])
	}
	if len(entries) > 0 {
		bus.RecordBitsliced(int64(len(entries)))
	}
}

// consumeBlock prices one block of 1..bus.BlockLen addresses.
func (ps *PlaneSet) consumeBlock(block []uint64) {
	n := len(block)
	bus.PackPlanes(block, &ps.a)
	ps.blk = PlaneBlock{
		A:       &ps.a,
		N:       n,
		PrevRaw: ps.prevRaw,
		Last:    block[n-1],
		First:   ps.first,
	}
	if n >= 2 {
		ps.blk.Prev2 = block[n-2]
	} else {
		ps.blk.Prev2 = ps.prevRaw
	}
	for i := range ps.lanes {
		ln := &ps.lanes[i]
		e, last := ln.pe.EncodePlanes(&ps.blk, &ps.scratch)
		ln.b.AccumulateEncoded(e, n, last)
	}
	ps.prevRaw = ps.blk.Last
	ps.first = false
}

// Bus returns codec i's accumulation bus, for ordered shard reduction
// (bus.Merge) and result extraction.
func (ps *PlaneSet) Bus(i int) *bus.Bus { return ps.lanes[i].b }

// PlaneEligible decides whether an evaluation routes to the plane path,
// honoring the Kernel selector: VerifyFull needs every encoded word
// materialized, so it always prices scalar — under KernelPlane that
// combination is an error rather than a silent fallback, as is a codec
// without a plane kernel.
func PlaneEligible(c Codec, k Kernel, v VerifyMode) (bool, error) {
	switch k {
	case KernelScalar:
		return false, nil
	case KernelPlane:
		if !HasPlaneKernel(c) {
			return false, errNoPlaneKernel(c)
		}
		if v == VerifyFull {
			return false, fmt.Errorf("codec %s: the plane kernel cannot verify every entry; use VerifySampled or the scalar kernel", c.Name())
		}
		return true, nil
	default:
		return v != VerifyFull && HasPlaneKernel(c), nil
	}
}

// RunPlaneSet prices one materialized stream through several codecs in
// a single sweep, sharing the per-block address transpose across all of
// them — the cheapest way to regenerate a multi-codec table. It drives
// the one Pricer NewPricers groups them into under KernelPlane, so every
// codec must have a plane kernel and opts.Kernel is ignored; VerifyFull
// is rejected, VerifySampled checks each codec's sample on its own
// verify lane. Results come back in codec order and are bit-identical to
// per-codec RunFast.
func RunPlaneSet(codecs []Codec, s *trace.Stream, opts RunOpts) ([]Result, error) {
	if opts.Verify == VerifyFull {
		return nil, fmt.Errorf("codec: RunPlaneSet cannot verify every entry; use VerifySampled or per-codec RunFast")
	}
	opts.Kernel = KernelPlane
	root := obs.StartSpan("codec.run_plane_set", obs.StageEncode).WithStream(s.Name)
	ps, err := NewPricers(codecs, opts)
	for i := 0; i < len(ps) && err == nil; i++ {
		err = chunked(root, s.Entries, ps[i].ConsumeEntries)
	}
	var results []Result
	if err == nil {
		results, err = Collect(ps, s.Name)
	}
	root.EndErr(err)
	return results, err
}
