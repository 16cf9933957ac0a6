package trace

import (
	"fmt"
	"io"
	"os"
)

// Streaming trace readers. OpenText and OpenBinary wrap an io.Reader in
// a ChunkReader that parses on demand into pooled chunks: memory use is
// bounded by the chunk pool no matter how large the trace is, and the
// per-entry path performs no allocations (no bufio.Scanner, no string
// conversion, no fmt). OpenFile sniffs the format from the first bytes.
// The materializing ReadTextNamed/ReadBinaryNamed in io.go are thin
// wrappers that drain these readers.

// textChunkReader streams the text trace format (see io.go).
type textChunkReader struct {
	f      *fillBuf
	file   string // for error positions; may be empty
	line   int
	name   string
	width  int
	mask   uint64
	pool   *ChunkPool
	begun  bool  // an entry has been parsed: the width is fixed
	chunks int   // chunks returned so far, for span attribution
	err    error // sticky terminal state (io.EOF or a parse error)
}

// OpenText returns a streaming reader over a text-format trace. file is
// used to position parse errors ("file:line:") and may be empty. A nil
// pool selects the shared default pool. Leading metadata comments are
// parsed eagerly so Name and Width are available before the first Next.
func OpenText(r io.Reader, file string, pool *ChunkPool) (ChunkReader, error) {
	t := &textChunkReader{
		f:     newFillBuf(r),
		file:  file,
		width: 32,
		mask:  widthMask(32),
		pool:  orDefaultPool(pool),
	}
	if err := t.readHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(w) - 1
}

// firstOverWidth returns the index of the first address in addrs with a
// bit at or above width, or -1 when all of them fit. The streaming BETR
// decoder checks each decoded chunk with it: one OR over the chunk keeps
// the check out of its per-entry varint loop. The in-memory decoder ORs
// as it decodes and calls it only to name an entry it knows is there.
func firstOverWidth(addrs []uint64, width int) int {
	if width >= 64 {
		return -1
	}
	mask := widthMask(width)
	var or uint64
	for _, a := range addrs {
		or |= a
	}
	if or&^mask == 0 {
		return -1
	}
	for i, a := range addrs {
		if a&^mask != 0 {
			return i
		}
	}
	return -1
}

// readHeader consumes the leading run of blank and comment lines —
// which is where WriteText puts the name/width metadata — so the
// reader's Name and Width are meaningful immediately after Open.
func (t *textChunkReader) readHeader() error {
	for {
		line, consume, err := t.f.peekLine()
		if err == io.EOF {
			t.err = io.EOF
			return nil
		}
		if err != nil {
			return t.posErr("%v", err)
		}
		trimmed := trimSpace(line)
		if len(trimmed) != 0 && trimmed[0] != '#' {
			return nil // first entry line: leave it for Next
		}
		t.line++
		if len(trimmed) != 0 {
			if err := t.meta(trimmed); err != nil {
				return err
			}
		}
		t.f.advance(consume)
	}
}

func (t *textChunkReader) Name() string { return t.name }
func (t *textChunkReader) Width() int   { return t.width }

func (t *textChunkReader) posErr(format string, args ...any) error {
	return posError(t.file, t.line, format, args...)
}

// meta applies one trimmed comment line's metadata.
func (t *textChunkReader) meta(line []byte) error {
	rest := trimSpace(line[1:]) // strip '#'
	switch {
	case hasPrefix(rest, "name:"):
		t.name = string(trimSpace(rest[len("name:"):]))
	case hasPrefix(rest, "width:"):
		w, ok := parseDec(trimSpace(rest[len("width:"):]))
		if !ok || w == 0 || w > 64 {
			return t.posErr("bad width %q", trimSpace(rest[len("width:"):]))
		}
		if t.begun && int(w) != t.width {
			return t.posErr("width changes from %d to %d after the first entry", t.width, w)
		}
		t.width = int(w)
		t.mask = widthMask(t.width)
	}
	return nil
}

func hasPrefix(b []byte, p string) bool {
	return len(b) >= len(p) && string(b[:len(p)]) == p
}

// entry parses one trimmed non-comment line ("<kind> <hex>") and
// appends it to the chunk.
func (t *textChunkReader) entry(line []byte, ch *Chunk) error {
	// Split on the first whitespace run.
	sp := 0
	for sp < len(line) && !isSpace(line[sp]) {
		sp++
	}
	if sp == len(line) {
		return t.posErr("expected \"<kind> <hex>\", got %q", line)
	}
	kindTok, rest := line[:sp], trimSpace(line[sp:])
	var k Kind
	switch {
	case len(kindTok) == 1 && kindTok[0] == 'I':
		k = Instr
	case len(kindTok) == 1 && kindTok[0] == 'R':
		k = DataRead
	case len(kindTok) == 1 && kindTok[0] == 'W':
		k = DataWrite
	default:
		return t.posErr("unknown kind %q", kindTok)
	}
	for _, c := range rest {
		if isSpace(c) {
			return t.posErr("expected \"<kind> <hex>\", got %q", line)
		}
	}
	addr, ok := parseHex(rest)
	if !ok {
		return t.posErr("bad address %q", rest)
	}
	if addr&^t.mask != 0 {
		return t.posErr("address %#x exceeds declared width %d", addr, t.width)
	}
	t.begun = true
	ch.append(addr, k)
	return nil
}

func (t *textChunkReader) Next() (*Chunk, error) {
	ch, err := observeNext(t.err != nil, t.name, t.chunks, t.next)
	if err == nil {
		t.chunks++
	}
	return ch, err
}

func (t *textChunkReader) next() (*Chunk, error) {
	if t.err != nil {
		return nil, t.err
	}
	ch := t.pool.Get()
	for ch.Len() < t.pool.Cap() {
		line, err := t.f.readLine()
		if err == io.EOF {
			t.err = io.EOF
			break
		}
		if err != nil {
			t.line++
			t.err = t.posErr("%v", err)
			break
		}
		t.line++
		line = trimSpace(line)
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if err := t.meta(line); err != nil {
				t.err = err
				break
			}
			continue
		}
		if err := t.entry(line, ch); err != nil {
			t.err = err
			break
		}
	}
	if t.err != nil && t.err != io.EOF {
		ch.Release()
		return nil, t.err
	}
	if ch.Len() == 0 {
		ch.Release()
		return nil, io.EOF
	}
	return ch, nil
}

// binaryChunkReader streams the binary trace format (see io.go for the
// header layout).
type binaryChunkReader struct {
	f         *fillBuf
	file      string
	name      string
	width     int
	total     uint64
	remaining uint64
	prev      uint64
	pool      *ChunkPool
	chunks    int // chunks returned so far, for span attribution
	err       error
}

// OpenBinary returns a streaming reader over a binary-format trace,
// parsing the header eagerly (Name, Width and EntryCount are valid on
// return). file positions errors and may be empty; a nil pool selects
// the shared default pool.
func OpenBinary(r io.Reader, file string, pool *ChunkPool) (ChunkReader, error) {
	b := &binaryChunkReader{f: newFillBuf(r), file: file, pool: orDefaultPool(pool)}
	if err := b.readHeader(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *binaryChunkReader) ctx(format string, args ...any) error {
	if b.file != "" {
		return fmt.Errorf("trace: %s: %s", b.file, fmt.Sprintf(format, args...))
	}
	return fmt.Errorf("trace: %s", fmt.Sprintf(format, args...))
}

func (b *binaryChunkReader) readHeader() error {
	w, err := b.f.peek(4)
	if err != nil {
		return b.ctx("reading magic: %v", err)
	}
	if string(w[:4]) != binMagic {
		return b.ctx("bad magic %q", w[:4])
	}
	b.f.advance(4)
	ver, err := b.f.readByte()
	if err != nil {
		return b.ctx("reading version: %v", err)
	}
	if ver != 1 {
		return b.ctx("unsupported version %d", ver)
	}
	widthB, err := b.f.readByte()
	if err != nil {
		return b.ctx("reading width: %v", err)
	}
	if widthB == 0 || widthB > 64 {
		return b.ctx("bad width %d", widthB)
	}
	nameLen, err := b.f.readUvarint()
	if err != nil {
		return b.ctx("reading name length: %v", err)
	}
	if nameLen > 1<<20 {
		return b.ctx("unreasonable name length %d", nameLen)
	}
	nb, err := b.f.peek(int(nameLen))
	if err != nil {
		return b.ctx("reading name: %v", err)
	}
	b.name = string(nb[:nameLen])
	b.f.advance(int(nameLen))
	count, err := b.f.readUvarint()
	if err != nil {
		return b.ctx("reading entry count: %v", err)
	}
	b.width = int(widthB)
	b.total = count
	b.remaining = count
	return nil
}

func (b *binaryChunkReader) Name() string { return b.name }
func (b *binaryChunkReader) Width() int   { return b.width }

// EntryCount reports the header-declared entry count, which nothing
// checks against the bytes that follow.
func (b *binaryChunkReader) EntryCount() (uint64, bool) { return b.total, true }

func (b *binaryChunkReader) Next() (*Chunk, error) {
	ch, err := observeNext(b.err != nil, b.name, b.chunks, b.next)
	if err == nil {
		b.chunks++
	}
	return ch, err
}

func (b *binaryChunkReader) next() (*Chunk, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.remaining == 0 {
		b.err = io.EOF
		return nil, io.EOF
	}
	ch := b.pool.Get()
	n := uint64(b.pool.Cap())
	if n > b.remaining {
		n = b.remaining
	}
	entry := b.total - b.remaining
	prev := b.prev
	for i := uint64(0); i < n; i++ {
		kb, err := b.f.readByte()
		if err != nil {
			ch.Release()
			b.err = b.ctx("entry %d: %v", entry+i, err)
			return nil, b.err
		}
		if kb > byte(DataWrite) {
			ch.Release()
			b.err = b.ctx("entry %d: bad kind %d", entry+i, kb)
			return nil, b.err
		}
		delta, err := b.f.readVarint()
		if err != nil {
			ch.Release()
			b.err = b.ctx("entry %d: %v", entry+i, err)
			return nil, b.err
		}
		prev += uint64(delta)
		ch.append(prev, Kind(kb))
	}
	if i := firstOverWidth(ch.Addrs, b.width); i >= 0 {
		b.err = b.ctx("entry %d: address %#x exceeds declared width %d", entry+uint64(i), ch.Addrs[i], b.width)
		ch.Release()
		return nil, b.err
	}
	b.prev = prev
	b.remaining -= n
	return ch, nil
}

// OpenFile opens a trace file and auto-detects its format from the
// magic bytes: files starting with "BETR" stream as binary, anything
// else as text. Regular binary files take the zero-copy mmap path
// (decoding straight from the mapped view, no buffered-read copies);
// pipes, FIFOs, text traces and platforms without mmap stream through
// the buffered parser. The returned Closer closes the underlying file
// (and unmaps the view on the zero-copy path) and must be called when
// done (also after read errors).
func OpenFile(path string, pool *ChunkPool) (ChunkReader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	// Zero-copy fast path: a regular file with the binary magic maps
	// directly. ReadAt leaves the offset alone, so the buffered path
	// below still starts at byte 0 when mapping is not possible.
	if st, serr := f.Stat(); serr == nil && st.Mode().IsRegular() && st.Size() >= int64(len(binMagic)) {
		var magic [len(binMagic)]byte
		if _, rerr := f.ReadAt(magic[:], 0); rerr == nil && string(magic[:]) == binMagic {
			if data, merr := mapFile(f, st.Size()); merr == nil {
				mr, err := newMemReader(data, path, pool, true)
				if err != nil {
					unmapFile(data)
					f.Close()
					return nil, nil, err
				}
				recordMmapOpen(int64(len(data)), false)
				return mr, &mappedCloser{data: data, unmap: true, f: f}, nil
			}
		}
	}
	fb := newFillBuf(f)
	w, err := fb.peek(len(binMagic))
	isBinary := err == nil && string(w[:len(binMagic)]) == binMagic
	var cr ChunkReader
	if isBinary {
		b := &binaryChunkReader{f: fb, file: path, pool: orDefaultPool(pool)}
		if err := b.readHeader(); err != nil {
			f.Close()
			return nil, nil, err
		}
		cr = b
	} else {
		t := &textChunkReader{
			f:     fb,
			file:  path,
			width: 32,
			mask:  widthMask(32),
			pool:  orDefaultPool(pool),
		}
		if err := t.readHeader(); err != nil {
			f.Close()
			return nil, nil, err
		}
		cr = t
	}
	return cr, f, nil
}
