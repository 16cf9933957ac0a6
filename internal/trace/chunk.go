package trace

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"busenc/internal/obs"
)

// Streaming chunk layer. The batched evaluation engine (PR 1) made codec
// throughput outrun trace materialization: loading a multi-GB trace into
// a []Entry now dominates both wall time and memory. This file defines
// the bounded-memory alternative — traces are consumed as a sequence of
// pooled fixed-capacity chunks in structure-of-arrays layout, so the
// working set of an evaluation is a handful of chunks regardless of
// trace length. Chunks are reference-counted because the fan-out
// evaluator (core.EvaluateStreaming) broadcasts one chunk to several
// pricing workers; the last release returns the chunk to its pool.

// DefaultChunkLen is the default chunk capacity in entries. It matches
// the codec engine's batch granularity (codec runChunk), so one chunk
// feeds one EncodeBatch call: 4096 × (8 B addr + 1 B kind) ≈ 36 KiB,
// comfortably cache-resident.
const DefaultChunkLen = 4096

// Chunk is a block of consecutive trace entries in structure-of-arrays
// layout: Addrs[i] and Kinds[i] describe entry i. Chunks are pooled and
// reference-counted; a consumer that is handed a chunk owns one
// reference and must call Release exactly once when done. Holders must
// treat Addrs/Kinds as read-only.
type Chunk struct {
	Addrs []uint64
	Kinds []Kind

	refs atomic.Int32
	pool *ChunkPool
}

// Len returns the number of entries in the chunk.
func (c *Chunk) Len() int { return len(c.Addrs) }

// Entry returns entry i as a trace.Entry.
func (c *Chunk) Entry(i int) Entry { return Entry{Addr: c.Addrs[i], Kind: c.Kinds[i]} }

// Retain adds extra references to the chunk, one per additional consumer
// the caller is about to hand it to.
func (c *Chunk) Retain(extra int) {
	if extra > 0 {
		c.refs.Add(int32(extra))
	}
}

// Release drops one reference. When the last reference is dropped the
// chunk is reset and returned to its pool for reuse.
func (c *Chunk) Release() {
	n := c.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("trace: Chunk.Release without matching reference")
	}
	c.Addrs = c.Addrs[:0]
	c.Kinds = c.Kinds[:0]
	metrics().poolInUse.Add(-1)
	if c.pool != nil {
		c.pool.pool.Put(c)
	}
}

// append adds one entry; the parsers fill chunks through this. The
// backing arrays are allocated at pool capacity, so no reallocation
// happens while a chunk stays within its pool's chunk length.
func (c *Chunk) append(addr uint64, kind Kind) {
	c.Addrs = append(c.Addrs, addr)
	c.Kinds = append(c.Kinds, kind)
}

// ChunkPool recycles chunks of a fixed capacity. The zero value is not
// usable; construct with NewChunkPool. A nil *ChunkPool passed to the
// Open* readers selects a shared package-level pool of DefaultChunkLen
// chunks.
type ChunkPool struct {
	capEntries int
	pool       sync.Pool
}

// NewChunkPool returns a pool of chunks holding up to chunkLen entries
// each (DefaultChunkLen if chunkLen <= 0).
func NewChunkPool(chunkLen int) *ChunkPool {
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	p := &ChunkPool{capEntries: chunkLen}
	p.pool.New = func() any {
		metrics().poolMisses.Inc()
		return &Chunk{
			Addrs: make([]uint64, 0, chunkLen),
			Kinds: make([]Kind, 0, chunkLen),
			pool:  p,
		}
	}
	return p
}

// Cap returns the chunk capacity in entries.
func (p *ChunkPool) Cap() int { return p.capEntries }

// Get returns an empty chunk with one reference held by the caller.
func (p *ChunkPool) Get() *Chunk {
	m := metrics()
	m.poolGets.Inc()
	m.poolInUse.Add(1)
	c := p.pool.Get().(*Chunk)
	c.refs.Store(1)
	return c
}

// defaultChunkPool backs the nil-pool convenience of the Open* readers
// and Stream.Chunks; sharing it across calls keeps steady-state chunk
// allocations at zero process-wide.
var defaultChunkPool = NewChunkPool(DefaultChunkLen)

func orDefaultPool(p *ChunkPool) *ChunkPool {
	if p == nil {
		return defaultChunkPool
	}
	return p
}

// ChunkReader is an iterator over a trace as a sequence of chunks.
//
// Next returns the next chunk (never empty) or io.EOF after the last
// one; any other error means the underlying source is corrupt or
// unreadable. The caller receives one reference to the returned chunk
// and must Release it (after Retain-ing for any additional consumers).
// After a non-nil error, Next returns the same error on every
// subsequent call.
//
// Name and Width report the trace metadata. For header-carrying formats
// they are valid immediately after Open; the text format allows
// metadata comments anywhere, so they are authoritative only once Next
// has returned io.EOF (leading metadata — the layout WriteText emits —
// is parsed eagerly at Open).
type ChunkReader interface {
	Next() (*Chunk, error)
	Name() string
	Width() int
}

// streamChunks adapts a materialized Stream to the ChunkReader
// interface, copying entries into pooled chunks. It is the bridge that
// lets streaming consumers run over in-memory streams (and lets parity
// tests compare the two paths at arbitrary chunk sizes).
type streamChunks struct {
	s    *Stream
	pos  int
	pool *ChunkPool
}

// Chunks returns a ChunkReader over the stream with chunks of chunkLen
// entries (DefaultChunkLen if chunkLen <= 0). The stream must not be
// mutated while the reader is in use.
func (s *Stream) Chunks(chunkLen int) ChunkReader {
	pool := defaultChunkPool
	if chunkLen > 0 && chunkLen != DefaultChunkLen {
		pool = NewChunkPool(chunkLen)
	}
	return &streamChunks{s: s, pool: pool}
}

func (r *streamChunks) Next() (*Chunk, error) {
	if r.pos >= len(r.s.Entries) {
		return nil, io.EOF
	}
	ch := r.pool.Get()
	end := r.pos + r.pool.Cap()
	if end > len(r.s.Entries) {
		end = len(r.s.Entries)
	}
	for _, e := range r.s.Entries[r.pos:end] {
		ch.append(e.Addr, e.Kind)
	}
	r.pos = end
	return ch, nil
}

func (r *streamChunks) Name() string { return r.s.Name }
func (r *streamChunks) Width() int   { return r.s.Width }

// maxPrealloc caps ReadAll's preallocation. Longer traces still load;
// the slice grows past the cap as entries arrive.
const maxPrealloc = 1 << 22

// ReadAll drains a ChunkReader into a materialized Stream. It is the
// compatibility bridge for callers that genuinely need the whole trace
// in memory; the streaming evaluators never call it.
func ReadAll(r ChunkReader) (_ *Stream, err error) {
	sp := obs.StartSpan("trace.read_all", obs.StageRead).WithStream(r.Name())
	defer func() { sp.EndErr(err) }()
	s := New(r.Name(), r.Width())
	// A header's count is untrusted: a few bytes may claim 2^40 entries.
	// The in-memory reader bounds it by the bytes it holds, so its count
	// is reserved up front; a stream reader's count is only a claim, so
	// its slice grows as entries arrive.
	if m, ok := r.(*memChunkReader); ok {
		n, _ := m.EntryCount()
		s.Entries = make([]Entry, 0, min(n, maxPrealloc))
	}
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i, a := range ch.Addrs {
			s.Entries = append(s.Entries, Entry{Addr: a, Kind: ch.Kinds[i]})
		}
		ch.Release()
	}
	// A text name comment may appear after entries; pick up the final
	// name.
	s.Name = r.Name()
	s.Width = r.Width()
	return s, nil
}

// Copy drains a ChunkReader into a ChunkWriterTo-style sink function,
// passing each chunk exactly once; the sink must not retain the chunk
// beyond the call. It returns the total number of entries forwarded.
func Copy(r ChunkReader, sink func(*Chunk) error) (int64, error) {
	var n int64
	for {
		ch, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += int64(ch.Len())
		serr := sink(ch)
		ch.Release()
		if serr != nil {
			return n, serr
		}
	}
}

// errString formats the position prefix of parser errors: with a
// filename it is "file:line:", otherwise "line N:".
func posError(file string, line int, format string, args ...any) error {
	if file != "" {
		return fmt.Errorf("trace: %s:%d: %s", file, line, fmt.Sprintf(format, args...))
	}
	return fmt.Errorf("trace: line %d: %s", line, fmt.Sprintf(format, args...))
}
