package codec

import (
	"fmt"
	"math"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// The pricing core. The paper's whole evaluation is one loop: encode the
// address stream, count bus transitions, check that the decode
// round-trips. Pricer is that loop, and the only copy of it besides the
// reference Run: RunFast, RunStream, PriceShard (and through it
// RunParallel and the distributed workers) and core.EvaluateStreaming
// are thin drivers that feed it entries and read its bus.
//
// A Pricer picks its kernel once (PlaneEligible): the scalar path
// gathers symbols into a pooled buffer, runs the codec's BatchEncoder
// and counts with bus.Accumulate; the plane path hands addresses to a
// one-codec PlaneSet and never materializes encoded words. Decode
// verification follows a budget fixed at construction — every entry
// under VerifyFull, the first VerifySampleLen under VerifySampled —
// and the plane path replays its budget through a scalar encoder.

// Pricer prices one codec over one contiguous run of a stream, fed in
// order by any mix of ConsumeEntries and Consume calls. Not safe for
// concurrent use; build one per goroutine.
type Pricer struct {
	c    Codec
	enc  Encoder      // the scalar kernel's encoder; nil on the plane path
	be   BatchEncoder // enc's batch view
	ps   *PlaneSet    // the plane kernel; nil on the scalar path
	b    *bus.Bus     // the counting bus (ps.Bus(0) on the plane path)
	mask uint64

	// dec checks the decode round trip while verifyLeft > 0 and is
	// dropped once the budget is spent. vEnc re-encodes the verified
	// entries on the plane path, which has no encoded words to decode.
	verify     VerifyMode // opts.Verify, which Seed consults mid-stream
	dec        Decoder
	vEnc       Encoder
	verifyLeft int

	base int // absolute index of the first entry, for mismatch reports
	n    int // entries consumed
}

// NewPricer builds a fresh Pricer for c: kernel per opts.Kernel (an
// error under KernelPlane when the plane path is unavailable), counting
// per opts.PerLine, verification per opts.Verify.
func NewPricer(c Codec, opts RunOpts) (*Pricer, error) {
	usePlane, err := PlaneEligible(c, opts.Kernel, opts.Verify)
	if err != nil {
		return nil, err
	}
	p := &Pricer{c: c, mask: bus.Mask(c.PayloadWidth()), verify: opts.Verify}
	if usePlane {
		if p.ps, err = NewPlaneSet([]Codec{c}, opts.PerLine); err != nil {
			return nil, err
		}
		p.b = p.ps.Bus(0)
	} else {
		p.enc = c.NewEncoder()
		p.be = AsBatch(p.enc)
		if opts.PerLine {
			p.b = bus.New(c.BusWidth())
		} else {
			p.b = bus.NewAggregate(c.BusWidth())
		}
	}
	switch opts.Verify {
	case VerifyFull:
		p.dec, p.verifyLeft = c.NewDecoder(), math.MaxInt
	case VerifySampled:
		p.dec, p.verifyLeft = c.NewDecoder(), VerifySampleLen
		if usePlane {
			p.vEnc = c.NewEncoder()
		}
	}
	return p, nil
}

// Seed joins the stream mid-way at bd, before the first Consume call:
// the encoder takes bd.State (checked against the codec's own state
// type) or seeds from bd.SeedSym, then re-encodes bd.Prev to recover
// the word the sequential run left on the bus and primes the bus with
// it. A shard past the first keeps verifying only under VerifyFull with
// a seedable decoder; any other decoder would need the whole prefix.
// Seed is a no-op for bd.First.
func (p *Pricer) Seed(bd Boundary) error {
	if bd.First {
		return nil
	}
	enc := p.enc
	if enc == nil {
		enc = p.c.NewEncoder()
	}
	if bd.State != nil {
		sc, ok := enc.(StateCodec)
		if !ok {
			return fmt.Errorf("codec %s: boundary state for an encoder without StateCodec", p.c.Name())
		}
		if err := checkState(p.c, sc, bd.State); err != nil {
			return err
		}
		sc.Restore(bd.State)
	} else if sd, ok := enc.(Seeder); ok {
		if bd.HaveSeedSym {
			sd.SeedFrom(bd.SeedSym)
		}
	} else {
		return fmt.Errorf("codec %s: mid-stream shard needs explicit boundary state", p.c.Name())
	}
	if sd, ok := p.dec.(Seeder); ok && p.verify == VerifyFull {
		if bd.HaveSeedSym {
			sd.SeedFrom(bd.SeedSym)
		}
	} else {
		p.dec, p.verifyLeft = nil, 0
	}
	sym := SymbolOf(bd.Prev)
	word := enc.Encode(sym)
	if p.dec != nil {
		if err := p.check(-1, word, sym); err != nil {
			return err
		}
	}
	if p.ps != nil {
		p.ps.Prime(bd.Prev.Addr, []uint64{word})
	} else {
		p.b.Prime(word)
	}
	return nil
}

// ConsumeEntries prices the next entries of the stream. The plane path
// gathers addresses block by block itself (PlaneSet.ConsumeEntries).
func (p *Pricer) ConsumeEntries(entries []trace.Entry) error {
	buf := runBufPool.Get().(*runBuf)
	defer runBufPool.Put(buf)
	for base := 0; base < len(entries); base += runChunk {
		chunk := entries[base:min(base+runChunk, len(entries))]
		syms := buf.syms[:p.gather(len(chunk))]
		for i := range syms {
			syms[i] = SymbolOf(chunk[i])
		}
		if err := p.price(syms, buf.words[:len(syms)]); err != nil {
			return err
		}
		if p.ps != nil {
			p.ps.ConsumeEntries(chunk)
		}
		p.n += len(chunk)
	}
	return nil
}

// Consume prices the next entries of the stream given in
// structure-of-arrays form, as trace.Chunk holds them.
func (p *Pricer) Consume(addrs []uint64, kinds []trace.Kind) error {
	buf := runBufPool.Get().(*runBuf)
	defer runBufPool.Put(buf)
	for base := 0; base < len(addrs); base += runChunk {
		end := min(base+runChunk, len(addrs))
		syms := buf.syms[:p.gather(end-base)]
		for i := range syms {
			syms[i] = Symbol{Addr: addrs[base+i], Sel: kinds[base+i] == trace.Instr}
		}
		if err := p.price(syms, buf.words[:len(syms)]); err != nil {
			return err
		}
		if p.ps != nil {
			p.ps.Consume(addrs[base:end])
		}
		p.n += end - base
	}
	return nil
}

// gather returns how many leading symbols of an n-entry batch price
// needs: all of them for the scalar encoder, only the ones still under
// the verify budget for the plane kernel, which reads addresses.
func (p *Pricer) gather(n int) int {
	if p.ps != nil {
		return min(n, p.verifyLeft)
	}
	return n
}

// price runs one batch of at most runChunk symbols: on the scalar path
// it encodes into words and counts; on both paths it spends the verify
// budget on the leading symbols.
func (p *Pricer) price(syms []Symbol, words []uint64) error {
	if p.ps == nil {
		p.be.EncodeBatch(syms, words)
		p.b.Accumulate(words)
	}
	if p.dec == nil {
		return nil
	}
	n := min(len(syms), p.verifyLeft)
	for i := 0; i < n; i++ {
		var word uint64
		if p.vEnc != nil {
			word = p.vEnc.Encode(syms[i])
		} else {
			word = words[i]
		}
		if err := p.check(i, word, syms[i]); err != nil {
			return err
		}
	}
	if p.verifyLeft -= n; p.verifyLeft == 0 {
		p.dec = nil
	}
	return nil
}

// check decodes word and compares it with sym, the entry at offset i
// from the next unconsumed one.
func (p *Pricer) check(i int, word uint64, sym Symbol) error {
	got := p.dec.Decode(word, sym.Sel)
	if want := sym.Addr & p.mask; got != want {
		return fmt.Errorf("codec %s: round-trip mismatch at entry %d: addr %#x decoded as %#x", p.c.Name(), p.base+p.n+i, want, got)
	}
	return nil
}

// Bus returns the counting bus, for the ordered shard reduction
// (bus.MergeSlots).
func (p *Pricer) Bus() *bus.Bus { return p.b }

// Result converts the counts into a Result labeled with the stream
// name and publishes the run (RecordRun).
func (p *Pricer) Result(stream string) Result {
	r := newResult(p.c, stream, p.b)
	RecordRun(r.Codec, int64(p.n), r.Transitions)
	return r
}

// newResult builds the Result of codec c from its counting bus.
func newResult(c Codec, stream string, b *bus.Bus) Result {
	return Result{
		Codec:       c.Name(),
		Stream:      stream,
		BusWidth:    c.BusWidth(),
		Transitions: b.Transitions(),
		Cycles:      b.Cycles(),
		PerLine:     b.PerLine(),
		MaxPerCycle: b.MaxPerCycle(),
	}
}
