package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// drain reads every chunk of r into a fresh Stream, checking the
// never-empty-chunk contract along the way.
func drain(t *testing.T, r ChunkReader) *Stream {
	t.Helper()
	s, err := ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return s
}

func TestStreamChunksRoundTrip(t *testing.T) {
	s := randomStream(5000, 11)
	for _, chunkLen := range []int{1, 7, 4096, 0, 5000, 9999} {
		got := drain(t, s.Chunks(chunkLen))
		if !streamsEqual(s, got) {
			t.Errorf("chunkLen %d: round trip mismatch", chunkLen)
		}
	}
}

func TestStreamChunksSizes(t *testing.T) {
	s := randomStream(100, 12)
	r := s.Chunks(7)
	total, last := 0, 0
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ch.Len() == 0 {
			t.Fatal("empty chunk returned")
		}
		if last != 0 && last != 7 {
			t.Fatalf("short chunk of %d entries before the final one", last)
		}
		last = ch.Len()
		total += ch.Len()
		ch.Release()
	}
	if total != 100 {
		t.Errorf("chunks covered %d entries, want 100", total)
	}
	if last != 100%7 {
		t.Errorf("final chunk has %d entries, want %d", last, 100%7)
	}
}

func TestOpenTextStreaming(t *testing.T) {
	s := randomStream(3000, 13)
	s.Name = "stream-me"
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	r, err := OpenText(bytes.NewReader(buf.Bytes()), "", NewChunkPool(64))
	if err != nil {
		t.Fatal(err)
	}
	// Header metadata is eager: available before the first Next.
	if r.Name() != "stream-me" || r.Width() != 32 {
		t.Errorf("eager header: name=%q width=%d", r.Name(), r.Width())
	}
	got := drain(t, r)
	if !streamsEqual(s, got) {
		t.Error("text streaming round trip mismatch")
	}
}

func TestOpenBinaryStreaming(t *testing.T) {
	s := randomStream(3000, 14)
	s.Name = "bin-stream"
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBinary(bytes.NewReader(buf.Bytes()), "", NewChunkPool(64))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "bin-stream" || r.Width() != 32 {
		t.Errorf("header: name=%q width=%d", r.Name(), r.Width())
	}
	if n, ok := r.(interface{ EntryCount() (uint64, bool) }); ok {
		if c, known := n.EntryCount(); !known || c != 3000 {
			t.Errorf("EntryCount = %d,%v", c, known)
		}
	} else {
		t.Error("binary reader does not expose EntryCount")
	}
	got := drain(t, r)
	if !streamsEqual(s, got) {
		t.Error("binary streaming round trip mismatch")
	}
}

func TestOpenFileAutodetect(t *testing.T) {
	s := randomStream(500, 15)
	s.Name = "auto"
	dir := t.TempDir()
	binPath := filepath.Join(dir, "t.bin")
	txtPath := filepath.Join(dir, "t.txt")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txtPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{binPath, txtPath} {
		r, closer, err := OpenFile(path, nil)
		if err != nil {
			t.Fatalf("OpenFile(%s): %v", path, err)
		}
		got := drain(t, r)
		closer.Close()
		if !streamsEqual(s, got) {
			t.Errorf("%s: round trip mismatch", path)
		}
	}
}

func TestOpenFileErrorsCarryPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(path, []byte("I 400000\nX nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, closer, err := OpenFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	_, err = ReadAll(r)
	if err == nil || !strings.Contains(err.Error(), "bad.trace:2:") {
		t.Errorf("error %q lacks file:line position", err)
	}
}

func TestChunkRefcount(t *testing.T) {
	p := NewChunkPool(8)
	ch := p.Get()
	ch.append(1, Instr)
	ch.Retain(2) // three consumers in total
	ch.Release()
	ch.Release()
	if ch.Len() != 1 {
		t.Error("chunk reset before last reference dropped")
	}
	ch.Release() // last reference: resets and returns to pool
	if ch.Len() != 0 {
		t.Error("chunk not reset on final release")
	}
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	ch2 := p.Get()
	ch2.Release()
	ch2.Release()
}

func TestTextReaderSticksAfterError(t *testing.T) {
	r, err := OpenText(strings.NewReader("I 1\nbogus line here\nI 2\n"), "", NewChunkPool(1))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := r.Next()
	if err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	ch.Release()
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("bad line not reported: %v", err)
	}
	if _, err2 := r.Next(); err2 == nil || err2 == io.EOF {
		t.Errorf("error not sticky: %v", err2)
	}
}

func TestCopy(t *testing.T) {
	s := randomStream(1000, 16)
	var n int64
	got, err := Copy(s.Chunks(33), func(ch *Chunk) error {
		n += int64(ch.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1000 || n != 1000 {
		t.Errorf("Copy forwarded %d/%d entries", got, n)
	}
}

func TestTextLongLineGrowsBuffer(t *testing.T) {
	// A comment far longer than the initial fill buffer must not break
	// the parser (the window grows up to maxLineLen).
	var sb strings.Builder
	sb.WriteString("# ")
	sb.WriteString(strings.Repeat("x", 3*fillBufSize))
	sb.WriteString("\nI 400000\n")
	s, err := readText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Entries[0].Addr != 0x400000 {
		t.Errorf("entries after long comment: %+v", s.Entries)
	}
}

// TestReadAllBoundsPreallocation: a BETR header may declare any entry
// count. Over a 4-byte body that declares 2^40 entries, ReadAll on the
// in-memory and the stream reader allocates under 64 KiB before the
// body runs out, not the entries the header claims.
func TestReadAllBoundsPreallocation(t *testing.T) {
	data := binary.AppendUvarint([]byte{'B', 'E', 'T', 'R', 1, 32, 0}, 1<<40)
	data = append(data, 0, 2, 0, 2) // two entries of delta +1
	pool := NewChunkPool(0)
	pool.Get().Release() // the first chunk's buffers are not ReadAll's
	for _, open := range []struct {
		name string
		r    func() (ChunkReader, error)
	}{
		{"stream", func() (ChunkReader, error) { return OpenBinary(bytes.NewReader(data), "", pool) }},
		{"in-memory", func() (ChunkReader, error) { return newMemReader(data, "", pool, false) }},
	} {
		r, err := open.r()
		if err != nil {
			t.Fatalf("%s: %v", open.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = ReadAll(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: ReadAll of 2 of 2^40 declared entries succeeded", open.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: ReadAll allocated %d bytes for a 4-byte body", open.name, got)
		}
	}
}
