package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
)

// Zero-copy binary trace ingest. A BETR file on disk is already the
// byte stream the binary parser wants, so for regular files the
// buffered-reader layer (fillBuf's read-compact-refill copies) is pure
// overhead: memChunkReader decodes kind bytes and address varints
// directly from a memory-mapped view of the file. The kernel pages the
// trace in on demand and the page cache is shared across processes, so
// opening a multi-GB trace costs no read() traffic up front and no
// userspace copy at all. Platforms without mmap (and callers handing
// in their own buffers) use the same decoder over a read-into-memory
// fallback; pipes and FIFOs keep the streaming fillBuf path.

// errMmapUnsupported is returned by mapFile on platforms without an
// mmap implementation; MapBytes then falls back to reading the file and
// OpenFile to the buffered parser.
var errMmapUnsupported = errors.New("trace: mmap not supported on this platform")

// memChunkReader streams the binary trace format out of an in-memory
// byte slice — an mmap'd file view or a fully read buffer. It is the
// zero-copy counterpart of binaryChunkReader: same header handling,
// same chunk granularity, same error positions, no intermediate
// buffering layer.
type memChunkReader struct {
	data      []byte
	pos       int
	file      string
	name      string
	width     int
	total     uint64
	fits      uint64 // the most entries the bytes after the header hold
	remaining uint64
	prev      uint64
	pool      *ChunkPool
	chunks    int
	mapped    bool // view is an mmap, not a heap buffer (for tests/metrics)
	err       error
}

// newMemReader returns a streaming reader decoding a binary-format
// trace directly from data, which must start with the "BETR" magic.
// The header is parsed eagerly (Name, Width, EntryCount valid on
// return). data is aliased, not copied: it must stay valid and
// unmodified until the reader is done. file positions errors and may
// be empty; a nil pool selects the shared default pool. mapped marks
// an mmap'd view.
func newMemReader(data []byte, file string, pool *ChunkPool, mapped bool) (*memChunkReader, error) {
	m := &memChunkReader{data: data, file: file, pool: orDefaultPool(pool), mapped: mapped}
	if err := m.readHeader(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *memChunkReader) ctx(format string, args ...any) error {
	if m.file != "" {
		return fmt.Errorf("trace: %s: %s", m.file, fmt.Sprintf(format, args...))
	}
	return fmt.Errorf("trace: %s", fmt.Sprintf(format, args...))
}

// uvarint decodes one unsigned varint at m.pos, advancing it.
func (m *memChunkReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(m.data[m.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, errVarintOverflow
	}
	m.pos += n
	return x, nil
}

// decodeBETR decodes BETR entries from data[pos:] into addrs and kinds,
// one entry per index, continuing the delta chain from prev, and
// returns the position after the last entry it decoded. It is the one
// entry decoder of the in-memory reader and of IndexBETR. On a
// malformed entry it stops and returns that entry's index in addrs and
// the cause (decodeBETREntry's), with next at the entry; otherwise bad
// is len(addrs). Addresses are not checked against a width: or is the
// OR of every address it wrote, so a caller tells from one word whether
// any of them exceeds one.
//
// An entry is a kind byte and the zig-zag varint of its address delta.
// While at least 9 bytes remain, a varint of up to 8 bytes decodes
// inline (decodeInline). Longer varints, bad kinds and the last bytes of
// the view go through decodeBETREntry, so every error is its.
func decodeBETR(data []byte, pos int, prev uint64, addrs []uint64, kinds []Kind) (next, bad int, or uint64, err error) {
	kinds = kinds[:len(addrs)]
	for i := 0; ; i++ {
		i, pos, prev, or = decodeInline(data, pos, prev, or, addrs, kinds, i)
		if i == len(addrs) {
			return pos, i, or, nil
		}
		kind, delta, at, err := decodeBETREntry(data, pos)
		if err != nil {
			return pos, i, or, err
		}
		prev += delta
		addrs[i], kinds[i] = prev, kind
		or |= prev
		pos = at
	}
}

// decodeInline decodes entries from data[pos:] into addrs[i:] and
// kinds[i:] while they decode inline, and returns the index and the
// position of the first entry it left, with the address and the OR of
// the addresses so far. An entry decodes inline while at least 9 bytes
// remain: its kind is good and its varint of up to 8 bytes comes from
// one little-endian 8-byte load after the kind byte, a one-byte varint,
// most entries of an in-sequence stream, on a branch of its own, and a
// longer one ending at the lowest clear continuation bit, its 7-bit
// groups packed by three mask-and-shift steps. It calls nothing, so the
// loop keeps what it carries in registers.
func decodeInline(data []byte, pos int, prev, or uint64, addrs []uint64, kinds []Kind, i int) (int, int, uint64, uint64) {
	kinds = kinds[:len(addrs)]
	last := len(data) - 9 // the last entry start that leaves 9 bytes to load
	for ; i < len(addrs) && pos <= last && data[pos] <= byte(DataWrite); i++ {
		w := binary.LittleEndian.Uint64(data[pos+1:])
		if w&0x80 == 0 {
			b := w & 0x7f
			prev += b>>1 ^ -(b & 1)
			addrs[i], kinds[i] = prev, Kind(data[pos])
			or |= prev
			pos += 2
			continue
		}
		stop := ^w & 0x8080808080808080
		if stop == 0 {
			break
		}
		n := bits.TrailingZeros64(stop) // 8k+7 for a varint of k+1 bytes
		ux := w & (uint64(2)<<n - 1)
		ux = ux&0x007f007f007f007f | ux>>1&0x3f803f803f803f80
		ux = ux&0x00003fff00003fff | ux>>2&0x0fffc0000fffc000
		ux = ux&0x000000000fffffff | ux>>4&0x00fffffff0000000
		prev += ux>>1 ^ -(ux & 1)
		addrs[i], kinds[i] = prev, Kind(data[pos])
		or |= prev
		pos += n>>3 + 2
	}
	return i, pos, prev, or
}

// decodeBETREntry decodes the BETR entry at data[pos:] — a kind byte,
// then the zig-zag varint of the address delta — and returns the kind,
// the delta to add to the previous address and the position after the
// entry. The error is the cause only; callers prefix the entry
// position.
func decodeBETREntry(data []byte, pos int) (Kind, uint64, int, error) {
	if pos >= len(data) {
		return 0, 0, pos, io.ErrUnexpectedEOF
	}
	kb := data[pos]
	if kb > byte(DataWrite) {
		return 0, 0, pos, fmt.Errorf("bad kind %d", kb)
	}
	ux, sz := binary.Uvarint(data[pos+1:])
	if sz <= 0 {
		if sz == 0 {
			return 0, 0, pos, io.ErrUnexpectedEOF
		}
		return 0, 0, pos, errVarintOverflow
	}
	return Kind(kb), ux>>1 ^ -(ux & 1), pos + 1 + sz, nil
}

func (m *memChunkReader) readHeader() error {
	if len(m.data) < len(binMagic) {
		return m.ctx("reading magic: %v", io.ErrUnexpectedEOF)
	}
	if string(m.data[:len(binMagic)]) != binMagic {
		return m.ctx("bad magic %q", m.data[:len(binMagic)])
	}
	m.pos = len(binMagic)
	if m.pos+2 > len(m.data) {
		return m.ctx("reading version: %v", io.ErrUnexpectedEOF)
	}
	ver := m.data[m.pos]
	if ver != 1 {
		return m.ctx("unsupported version %d", ver)
	}
	if m.width = int(m.data[m.pos+1]); m.width == 0 || m.width > 64 {
		return m.ctx("bad width %d", m.width)
	}
	m.pos += 2
	nameLen, err := m.uvarint()
	if err != nil {
		return m.ctx("reading name length: %v", err)
	}
	if nameLen > 1<<20 {
		return m.ctx("unreasonable name length %d", nameLen)
	}
	if uint64(len(m.data)-m.pos) < nameLen {
		return m.ctx("reading name: %v", io.ErrUnexpectedEOF)
	}
	m.name = string(m.data[m.pos : m.pos+int(nameLen)])
	m.pos += int(nameLen)
	count, err := m.uvarint()
	if err != nil {
		return m.ctx("reading entry count: %v", err)
	}
	m.total = count
	m.remaining = count
	m.fits = uint64(len(m.data)-m.pos) / 2
	return nil
}

func (m *memChunkReader) Name() string { return m.name }
func (m *memChunkReader) Width() int   { return m.width }

// EntryCount reports the header-declared entry count, bounded by the
// bytes after the header: a BETR entry takes at least two, a kind byte
// and one varint byte. A larger count fails decoding.
func (m *memChunkReader) EntryCount() (uint64, bool) { return min(m.total, m.fits), true }

func (m *memChunkReader) Next() (*Chunk, error) {
	ch, err := observeNext(m.err != nil, m.name, m.chunks, m.next)
	if err == nil {
		m.chunks++
	}
	return ch, err
}

func (m *memChunkReader) next() (*Chunk, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.remaining == 0 {
		m.err = io.EOF
		return nil, io.EOF
	}
	ch := m.pool.Get()
	n := min(uint64(m.pool.Cap()), m.remaining)
	entry := m.total - m.remaining
	ch.Addrs, ch.Kinds = ch.Addrs[:n], ch.Kinds[:n]
	pos, bad, or, err := decodeBETR(m.data, m.pos, m.prev, ch.Addrs, ch.Kinds)
	if err != nil {
		ch.Release()
		m.err = m.ctx("entry %d: %v", entry+uint64(bad), err)
		return nil, m.err
	}
	if or&^widthMask(m.width) != 0 {
		i := firstOverWidth(ch.Addrs, m.width)
		m.err = m.ctx("entry %d: address %#x exceeds declared width %d", entry+uint64(i), ch.Addrs[i], m.width)
		ch.Release()
		return nil, m.err
	}
	m.pos = pos
	m.prev = ch.Addrs[n-1]
	m.remaining -= n
	return ch, nil
}

// mappedCloser tears down a MapBytes or OpenFile view: unmap (when
// mapped) then close the file. Closing while chunks from the reader are
// still being consumed is a use-after-unmap on the mapped variant —
// callers keep the OpenFile contract of closing only when done reading.
type mappedCloser struct {
	data  []byte
	unmap bool
	f     *os.File
}

func (c *mappedCloser) Close() error {
	var err error
	if c.unmap && c.data != nil {
		err = unmapFile(c.data)
		metrics().mmapBytes.Add(-int64(len(c.data)))
		c.data = nil
	}
	if c.f != nil {
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		c.f = nil
	}
	return err
}
