package codec

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// The pricing core. The paper's whole evaluation is one loop: encode the
// address stream, count bus transitions, check that the decode
// round-trips. Pricer is that loop, and the only copy of it besides the
// reference Run: RunFast, RunPlaneSet, core.EvaluateStreaming and the
// distributed workers (internal/dist) are thin drivers that feed it
// entries and read its buses.
//
// A Pricer picks its kernel once, from the routing table Groups keeps.
// Under KernelAuto, short of VerifyFull (which decodes every word): the
// delta codecs (binary, gray, offset, incxor, businvert, beach) of one
// width and stride go into one DeltaSet Pricer, priced from address
// deltas with no word encoded, in aggregate or per line; and two or
// more T0-family codecs (t0, t0bi, dualt0, dualt0bi) of one width and
// stride go into one SeqSet Pricer, so each block's in-sequence masks
// are built once for all of them and no word is encoded. A lone delta
// codec counting in aggregate keeps its own batch kernel where it has
// one (binary, gray, businvert, beach); offset and incxor, which have
// none, are a delta group of one. Any other codec reads the chunk's
// address and kind columns as they are on its own batch kernel:
// working-zone's prices without writing a word under KernelAuto, short
// of VerifyFull and per-line counts, and hands its counts to the bus
// (bus.AddRun); any other encodes into a pooled word buffer
// (EncodeBatch) that bus.Accumulate counts. KernelScalar (the A/B
// control, which writes every word) and VerifyFull keep the batch
// kernels. Every codec keeps its own bus and its own verify lane:
// decode verification follows a budget fixed at construction — every
// entry under VerifyFull, the first VerifySampleLen under
// VerifySampled. Only entries under the budget become Symbols; a group,
// and a batch kernel that counts, replays them through a scalar encoder
// per codec.

// Pricer prices one codec, or a group of delta or T0-family codecs,
// over one contiguous run of a stream, fed in order by any mix of
// ConsumeEntries and Consume calls. Not safe for concurrent use; build
// one per goroutine.
type Pricer struct {
	enc   Encoder      // the batch kernel's encoder; nil on a group
	be    BatchEncoder // enc's batch view, writing words; nil when wz counts
	wz    *wzEnd       // enc, when working-zone prices without words
	ss    *SeqSet      // the T0-family group's kernel
	ds    *DeltaSet    // the delta group's kernel
	lanes []lane       // one per codec; the batch kernel has exactly one

	// verifyLeft is the verify budget every lane still checks; Consume
	// reports a mismatch once it is spent or no lane verifies any more.
	verify     VerifyMode // opts.Verify, which Seed consults mid-stream
	verifyLeft int

	base int // absolute index of the first entry, for mismatch reports
	n    int // entries consumed
}

// lane is one codec of a Pricer. dec checks the decode round trip while
// the budget lasts and is dropped once the codec fails; vEnc re-encodes
// the verified entries on a group, which has no encoded words to decode.
// err is the codec's first mismatch.
type lane struct {
	c    Codec
	at   int // position in the codec list NewPricers grouped
	b    *bus.Bus
	mask uint64
	dec  Decoder
	vEnc Encoder
	err  error
}

// NewPricer builds a fresh Pricer for c, on the kernel Groups routes it
// to under opts: counting per opts.PerLine, verification per
// opts.Verify.
func NewPricer(c Codec, opts RunOpts) (*Pricer, error) {
	groups, err := Groups([]Codec{c}, opts)
	if err != nil {
		return nil, err
	}
	return newPricer([]Codec{c}, []int{0}, groups[0].Kind, opts)
}

// NewPricers builds the Pricers that price codecs over one shared
// stream, one per Group that Groups routes them into, in its order.
// Collect returns their results in list order.
func NewPricers(codecs []Codec, opts RunOpts) ([]*Pricer, error) {
	groups, err := Groups(codecs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*Pricer, len(groups))
	for i, g := range groups {
		if out[i], err = newPricer(codecs, g.At, g.Kind, opts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Group is one Pricer that NewPricers builds: the positions of its
// codecs in the caller's list, ascending, and the kernel it prices
// them with.
type Group struct {
	At   []int
	Kind GroupKind
}

// GroupKind is the kernel of a Group: one codec's batch kernel, or a
// SeqSet or DeltaSet.
type GroupKind int

const (
	// GroupBatch is one codec on its own BatchEncoder.
	GroupBatch GroupKind = iota
	// GroupSeq is a T0-family group (SeqSet).
	GroupSeq
	// GroupDelta is a delta group (DeltaSet).
	GroupDelta
)

// Groups routes codecs into the Pricers NewPricers builds for them. It
// refuses options whose kernel or verify mode names none (RunOpts.Check).
// Under KernelAuto and short of VerifyFull (which needs every encoded
// word), the delta codecs (binary, gray, offset, incxor, businvert,
// beach) of one payload width and stride form one delta group each,
// counting in aggregate or per line; a lone one counting in aggregate
// keeps its own batch kernel where it has one (binary, gray, businvert,
// beach) and is a delta group of one otherwise (offset, incxor). Two or
// more T0-family codecs that share payload width and stride form one
// T0-family group each. The groups come delta groups first, then the
// T0-family groups, then one per remaining codec on its batch kernel,
// in list order. It is the one routing table: NewPricer takes its
// kernel from it, and the dist planner weighs the groups the workers
// price.
func Groups(codecs []Codec, opts RunOpts) ([]Group, error) {
	if err := opts.Check(); err != nil {
		return nil, err
	}
	var batch []int
	var deltas, seqs [][]int
	grouped := opts.Kernel == KernelAuto && opts.Verify != VerifyFull
	for i, c := range codecs {
		switch {
		case grouped && hasDeltaKernel(c):
			deltas = join(deltas, codecs, i, sameDeltaGroup)
		case grouped && hasSeqKernel(c):
			seqs = join(seqs, codecs, i, sameSeqGroup)
		default:
			batch = append(batch, i)
		}
	}
	var out []Group
	for _, g := range deltas {
		if len(g) > 1 || opts.PerLine || !hasBatchKernel(codecs[g[0]]) {
			out = append(out, Group{At: g, Kind: GroupDelta})
		} else {
			batch = append(batch, g[0])
		}
	}
	for _, g := range seqs {
		if len(g) > 1 {
			out = append(out, Group{At: g, Kind: GroupSeq})
		} else {
			batch = append(batch, g[0])
		}
	}
	slices.Sort(batch)
	for _, i := range batch {
		out = append(out, Group{At: []int{i}, Kind: GroupBatch})
	}
	return out, nil
}

// hasBatchKernel reports whether c's encoder has a batch kernel of its
// own, not the generic per-entry loop.
func hasBatchKernel(c Codec) bool {
	_, ok := c.NewEncoder().(BatchEncoder)
	return ok
}

// join adds codec i of list to the first group of gs, each a list of
// positions in list, whose every codec it may share a kernel with
// (same), or to a new group.
func join(gs [][]int, list []Codec, i int, same func(a, b Codec) bool) [][]int {
	for k, g := range gs {
		if !slices.ContainsFunc(g, func(j int) bool { return !same(list[j], list[i]) }) {
			gs[k] = append(g, i)
			return gs
		}
	}
	return append(gs, []int{i})
}

// newPricer builds a Pricer over the codecs at positions at of the
// caller's codec list. The batch kernel takes exactly one codec.
func newPricer(list []Codec, at []int, k GroupKind, opts RunOpts) (*Pricer, error) {
	codecs := make([]Codec, len(at))
	for i, j := range at {
		codecs[i] = list[j]
	}
	p := &Pricer{lanes: make([]lane, len(codecs)), verify: opts.Verify}
	var err error
	switch k {
	case GroupSeq:
		p.ss, err = NewSeqSet(codecs, opts.PerLine)
	case GroupDelta:
		p.ds, err = NewDeltaSet(codecs, opts.PerLine)
	default:
		p.enc = codecs[0].NewEncoder()
		wz, ok := p.enc.(*wzEnd)
		if ok && opts.Kernel == KernelAuto && opts.Verify != VerifyFull && !opts.PerLine {
			p.wz = wz
		} else {
			p.be = AsBatch(p.enc)
		}
	}
	if err != nil {
		return nil, err
	}
	switch opts.Verify {
	case VerifyFull:
		p.verifyLeft = math.MaxInt
	case VerifySampled:
		p.verifyLeft = VerifySampleLen
	}
	for i, c := range codecs {
		ln := &p.lanes[i]
		*ln = lane{c: c, at: at[i], mask: bus.Mask(c.PayloadWidth())}
		switch {
		case p.ss != nil:
			ln.b = p.ss.Bus(i)
		case p.ds != nil:
			ln.b = p.ds.Bus(i)
		case opts.PerLine:
			ln.b = bus.New(c.BusWidth())
		default:
			ln.b = bus.NewAggregate(c.BusWidth())
		}
		if p.verifyLeft > 0 {
			ln.dec = c.NewDecoder()
			if p.be == nil {
				ln.vEnc = c.NewEncoder()
			}
		}
	}
	return p, nil
}

// Seed joins the stream mid-way at bd, before the first Consume call.
// Every lane's encoder takes bd.State (checked against the codec's own
// state type) or seeds from bd.SeedSym, then re-encodes bd.Prev to
// recover the word the sequential run left on the bus and primes the
// bus with it. A state belongs to one codec, so only a one-codec Pricer
// takes one, a delta group of one included; a delta group of Seeder
// codecs seeds from bd.SeedSym; a T0-family group, none of whose codecs
// is a Seeder, and a delta group holding bus-invert take only bd.First
// otherwise. Past a cut a lane keeps verifying only under VerifyFull
// with a seedable decoder, which rules out the groups; any other
// decoder would need the whole prefix. bd.Base positions mismatch
// reports; for bd.First it is all Seed sets.
func (p *Pricer) Seed(bd Boundary) error {
	p.base = bd.Base
	if bd.First {
		return nil
	}
	if p.ss != nil {
		return fmt.Errorf("codec %s: an in-sequence group prices from entry 0 only: a boundary state belongs to one codec", p.Name())
	}
	if p.ds != nil && !p.ds.seedable && bd.State == nil {
		return fmt.Errorf("codec %s: a delta group with a prefix-dependent codec prices from entry 0 only: a boundary state belongs to one codec", p.Name())
	}
	if bd.State != nil && len(p.lanes) != 1 {
		return fmt.Errorf("codec %s: a boundary state seeds a one-codec Pricer", p.Name())
	}
	sym := SymbolOf(bd.Prev)
	words := make([]uint64, len(p.lanes))
	verifying := false
	for k := range p.lanes {
		ln := &p.lanes[k]
		enc := p.enc
		if enc == nil {
			enc = ln.c.NewEncoder()
		}
		if bd.State != nil {
			sc, ok := enc.(StateCodec)
			if !ok {
				return fmt.Errorf("codec %s: boundary state for an encoder without StateCodec", ln.c.Name())
			}
			if err := checkState(ln.c, sc, bd.State); err != nil {
				return err
			}
			sc.Restore(bd.State)
		} else if sd, ok := enc.(Seeder); ok {
			if bd.HaveSeedSym {
				sd.SeedFrom(bd.SeedSym)
			}
		} else {
			return fmt.Errorf("codec %s: mid-stream shard needs explicit boundary state", ln.c.Name())
		}
		if sd, ok := ln.dec.(Seeder); ok && p.verify == VerifyFull {
			if bd.HaveSeedSym {
				sd.SeedFrom(bd.SeedSym)
			}
		} else {
			ln.dec = nil
		}
		words[k] = enc.Encode(sym)
		if ln.dec != nil {
			if err := p.check(ln, -1, words[k], sym); err != nil {
				return err
			}
			verifying = true
		}
	}
	if !verifying {
		p.verifyLeft = 0
	}
	if p.ds != nil {
		p.ds.Prime(bd.Prev.Addr, words)
	} else {
		p.lanes[0].b.Prime(words[0])
	}
	return nil
}

// ConsumeEntries prices the next entries of the stream, split into
// pooled address and kind columns once per batch.
func (p *Pricer) ConsumeEntries(entries []trace.Entry) error {
	buf := runBufPool.Get().(*runBuf)
	defer runBufPool.Put(buf)
	for base := 0; base < len(entries); base += runChunk {
		chunk := entries[base:min(base+runChunk, len(entries))]
		addrs, kinds := buf.columns(chunk)
		if err := p.price(addrs, kinds, buf.words); err != nil {
			return err
		}
		p.n += len(chunk)
	}
	return nil
}

// Consume prices the next entries of the stream given in
// structure-of-arrays form, as trace.Chunk holds them. The columns go
// to the kernel as they are, unchanged and uncopied.
func (p *Pricer) Consume(addrs []uint64, kinds []trace.Kind) error {
	var words []uint64
	if p.be != nil {
		buf := runBufPool.Get().(*runBuf)
		defer runBufPool.Put(buf)
		words = buf.words
	}
	for base := 0; base < len(addrs); base += runChunk {
		end := min(base+runChunk, len(addrs))
		if err := p.price(addrs[base:end], kinds[base:end], words); err != nil {
			return err
		}
		p.n += end - base
	}
	return nil
}

// price runs one batch of at most runChunk entries: the batch kernel
// encodes into words and counts them, or counts without words (count),
// a SeqSet prices the batch from its masks and a DeltaSet from its
// address deltas; then every lane spends the verify budget on the
// leading entries, building their symbols inline. A lane that
// mismatches stops verifying while the others go on, so that once
// verification is over the first failing codec in lane order is
// reported.
func (p *Pricer) price(addrs []uint64, kinds []trace.Kind, words []uint64) error {
	switch {
	case p.be != nil:
		words = words[:len(addrs)]
		p.be.EncodeBatch(addrs, kinds, words)
		p.lanes[0].b.Accumulate(words)
	case p.wz != nil:
		p.count(addrs, kinds)
	case p.ss != nil:
		p.ss.Consume(addrs, kinds)
	case p.ds != nil:
		p.ds.Consume(addrs, kinds)
	}
	n := min(len(addrs), p.verifyLeft)
	if n == 0 {
		return nil
	}
	verifying := false
	for k := range p.lanes {
		ln := &p.lanes[k]
		for i := 0; i < n && ln.dec != nil; i++ {
			sym := Symbol{Addr: addrs[i], Sel: kinds[i] == trace.Instr}
			var word uint64
			if ln.vEnc != nil {
				word = ln.vEnc.Encode(sym)
			} else {
				word = words[i]
			}
			if err := p.check(ln, i, word, sym); err != nil {
				ln.err, ln.dec = err, nil
			}
		}
		verifying = verifying || ln.dec != nil
	}
	if p.verifyLeft -= n; p.verifyLeft > 0 && verifying {
		return nil
	}
	p.verifyLeft = 0
	for _, ln := range p.lanes {
		if ln.err != nil {
			return ln.err
		}
	}
	return nil
}

// count prices a batch on working-zone's kernel without writing a word,
// from the word on the bus, and hands the counts to the bus. The
// stream's first entry goes through the encoder's Encode and onto the
// bus, which counts no transition for it.
func (p *Pricer) count(addrs []uint64, kinds []trace.Kind) {
	b := p.lanes[0].b
	if !b.Driven() && len(addrs) > 0 {
		b.Drive(p.enc.Encode(Symbol{Addr: addrs[0], Sel: kinds[0] == trace.Instr}))
		addrs = addrs[1:]
	}
	r := p.wz.countBatch(addrs, deltaRun{last: b.Current()})
	b.AddRun(int64(len(addrs)), r.transitions, r.max, r.last, nil)
}

// check decodes word on ln and compares it with sym, the entry at
// offset i from the next unconsumed one.
func (p *Pricer) check(ln *lane, i int, word uint64, sym Symbol) error {
	got := ln.dec.Decode(word, sym.Sel)
	if want := sym.Addr & ln.mask; got != want {
		return fmt.Errorf("codec %s: round-trip mismatch at entry %d: addr %#x decoded as %#x", ln.c.Name(), p.base+p.n+i, want, got)
	}
	return nil
}

// Name returns the priced codec's name; a group's names are joined
// by "+".
func (p *Pricer) Name() string {
	names := make([]string, len(p.lanes))
	for i, ln := range p.lanes {
		names[i] = ln.c.Name()
	}
	return strings.Join(names, "+")
}

// Result converts a one-codec Pricer's counts into a Result labeled
// with the stream name and publishes the run (RecordRun).
func (p *Pricer) Result(stream string) Result {
	return p.lanes[0].result(stream, p.n)
}

// Collect converts the counts of the Pricers NewPricers built into one
// Result per codec, in the order of its codec list, labeled with the
// stream name, and publishes each run (RecordRun). If any codec failed
// its decode round trip, Collect returns the first such failure in list
// order instead.
func Collect(ps []*Pricer, stream string) ([]Result, error) {
	n, err := checkLanes(ps)
	if err != nil {
		return nil, err
	}
	out := make([]Result, n)
	for _, p := range ps {
		for _, ln := range p.lanes {
			out[ln.at] = ln.result(stream, p.n)
		}
	}
	return out, nil
}

// CollectBuses is Collect's bus-level sibling for shard pricing: the
// counting bus of every codec of the Pricers NewPricers built, in the
// order of its codec list, ready for the ordered reduction
// (bus.MergeSlots) or for shipping as bus.Stats. It publishes nothing
// and fails like Collect.
func CollectBuses(ps []*Pricer) ([]*bus.Bus, error) {
	n, err := checkLanes(ps)
	if err != nil {
		return nil, err
	}
	out := make([]*bus.Bus, n)
	for _, p := range ps {
		for _, ln := range p.lanes {
			out[ln.at] = ln.b
		}
	}
	return out, nil
}

// checkLanes returns the number of codecs across ps and the decode
// failure of the first failing codec in the order of NewPricers' codec
// list, if any.
func checkLanes(ps []*Pricer) (int, error) {
	var failed *lane
	n := 0
	for _, p := range ps {
		for k := range p.lanes {
			if ln := &p.lanes[k]; ln.err != nil && (failed == nil || ln.at < failed.at) {
				failed = ln
			}
		}
		n += len(p.lanes)
	}
	if failed != nil {
		return n, failed.err
	}
	return n, nil
}

// result converts the lane's counts over n entries into a Result and
// publishes the run.
func (ln *lane) result(stream string, n int) Result {
	r := newResult(ln.c, stream, ln.b)
	RecordRun(r.Codec, int64(n), r.Transitions)
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
