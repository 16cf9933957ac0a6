package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBinaryFile materializes s as a binary trace file and returns
// its path.
func writeBinaryFile(t *testing.T, s *Stream) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.betr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// smallDeltaStream steps the address by less than 64 either way, so
// most zig-zag deltas fit one varint byte (the in-line decode path),
// with an occasional 32-bit jump that needs several.
func smallDeltaStream(n int, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	s := New("small", 32)
	addr := uint64(0x0040_0000)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			addr = rng.Uint64() & 0xFFFFFFFF
		case 1, 2, 3:
			addr -= uint64(rng.Intn(64))
		default:
			addr += uint64(rng.Intn(64))
		}
		s.Append(addr, Kind(rng.Intn(3)))
	}
	return s
}

func TestNewMemReaderParity(t *testing.T) {
	for _, s := range []*Stream{randomStream(5000, 11), smallDeltaStream(5000, 11)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		// Small pool: many chunk boundaries inside the decode loop.
		r, err := newMemReader(buf.Bytes(), "mem", NewChunkPool(17), false)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != s.Name || r.Width() != s.Width {
			t.Fatalf("header mismatch: %q/%d vs %q/%d", r.Name(), r.Width(), s.Name, s.Width)
		}
		if n, ok := r.EntryCount(); !ok || n != uint64(len(s.Entries)) {
			t.Fatalf("EntryCount = %d,%v; want %d,true", n, ok, len(s.Entries))
		}
		got, err := ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !streamsEqual(s, got) {
			t.Errorf("%s: mem reader mismatch vs original stream", s.Name)
		}
	}
}

// TestOpenMmapParity: OpenFile maps a regular BETR file and decodes it
// from the view, and its Closer unmaps once however often it is called.
func TestOpenMmapParity(t *testing.T) {
	s := randomStream(3000, 12)
	path := writeBinaryFile(t, s)
	r, closer, err := OpenFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if m, ok := r.(*memChunkReader); !ok || !m.mapped {
		t.Fatalf("OpenFile on a regular binary file returned %T, want a mapped *memChunkReader", r)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s, got) {
		t.Error("mmap reader mismatch vs original stream")
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenFileRoutesBinaryToMmap(t *testing.T) {
	s := randomStream(100, 13)
	path := writeBinaryFile(t, s)
	r, closer, err := OpenFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, ok := r.(*memChunkReader); !ok {
		t.Fatalf("OpenFile on a regular binary file returned %T; want *memChunkReader", r)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s, got) {
		t.Error("OpenFile mmap route mismatch vs original stream")
	}
}

func TestOpenFileTextStaysBuffered(t *testing.T) {
	s := randomStream(50, 14)
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, closer, err := OpenFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, ok := r.(*memChunkReader); ok {
		t.Fatal("OpenFile routed a text trace to the memory reader")
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s, got) {
		t.Error("OpenFile text route mismatch vs original stream")
	}
}

func TestOpenMmapRejectsNonRegular(t *testing.T) {
	if _, _, err := MapBytes(t.TempDir()); err == nil {
		t.Fatal("MapBytes on a directory succeeded")
	}
	if _, _, err := OpenFile(t.TempDir(), nil); err == nil {
		t.Fatal("OpenFile on a directory succeeded")
	}
}

func TestNewMemReaderErrors(t *testing.T) {
	s := randomStream(200, 15)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	if _, err := newMemReader([]byte("nope"), "f", nil, false); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("bad magic: got %v", err)
	}
	if _, err := newMemReader(whole[:2], "f", nil, false); err == nil {
		t.Error("truncated magic accepted")
	}
	// Truncate inside the entry payload: the header parses, decoding
	// fails at some entry with a positioned error.
	r, err := newMemReader(whole[:len(whole)-3], "f", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadAll(r)
	if err == nil || !strings.Contains(err.Error(), "entry") {
		t.Errorf("truncated payload: got %v", err)
	}
	// Bad kind byte in the first entry.
	bad := append([]byte(nil), whole...)
	hdrEnd := len(whole) - binaryPayloadLen(s)
	bad[hdrEnd] = 0x7F
	r, err = newMemReader(bad, "f", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = ReadAll(r); err == nil || !strings.Contains(err.Error(), "bad kind") {
		t.Errorf("bad kind: got %v", err)
	}
	// Bad kind byte in front of a one-byte delta, which the in-line path
	// would otherwise decode.
	bad = oneByteBadKind(t)
	r, err = newMemReader(bad, "f", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = ReadAll(r); err == nil || err.Error() != "trace: f: entry 1: bad kind 7" {
		t.Errorf("bad kind before a one-byte delta: got %v", err)
	}
}

// oneByteBadKind returns a three-entry BETR trace whose deltas each fit
// one varint byte, with entry 1's kind byte set to 7.
func oneByteBadKind(t *testing.T) []byte {
	t.Helper()
	s := New("k", 32)
	for _, a := range []uint64{0x10, 0x14, 0x18} {
		s.Append(a, Instr)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if binaryPayloadLen(s) != 6 {
		t.Fatalf("payload of %d bytes, want three two-byte entries", binaryPayloadLen(s))
	}
	data[len(data)-4] = 7
	return data
}

// binaryPayloadLen computes the byte length of s's entry payload by
// re-encoding only the entries (total file minus header).
func binaryPayloadLen(s *Stream) int {
	var whole, hdr bytes.Buffer
	if err := WriteBinary(&whole, s); err != nil {
		panic(err)
	}
	empty := New(s.Name, s.Width)
	if err := WriteBinary(&hdr, empty); err != nil {
		panic(err)
	}
	// Headers differ only in the entry-count varint; recompute exactly.
	return whole.Len() - (hdr.Len() - uvarintLen(0) + uvarintLen(uint64(len(s.Entries))))
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// TestMemReaderNextAllocs: on the mmap path a decoded chunk costs no
// allocation. The reader decodes into the pooled chunk's own columns,
// and every varint, inline or not, decodes in place. (The race detector
// makes sync.Pool drop chunks on purpose, so the pin holds only
// without it.)
func TestMemReaderNextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled chunks under the race detector")
	}
	const chunkLen = 256
	path := writeBinaryFile(t, smallDeltaStream(chunkLen*64, 21))
	r, closer, err := OpenFile(path, NewChunkPool(chunkLen))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if m, ok := r.(*memChunkReader); !ok || !m.mapped {
		t.Skip("no mmap on this platform")
	}
	if n := testing.AllocsPerRun(50, func() {
		ch, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		ch.Release()
	}); n != 0 {
		t.Errorf("%.1f allocations per decoded chunk, want 0", n)
	}
}

func BenchmarkMemReaderNext(b *testing.B) {
	s := randomStream(1<<16, 16)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(s.Entries)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := newMemReader(data, "", nil, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReadAll(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenMmapZeroLengthFile: a zero-length file cannot be mapped, so
// MapBytes falls back to an empty heap view, and planning over that
// view refuses it with an error naming the file.
func TestOpenMmapZeroLengthFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.betr")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	data, closer, err := MapBytes(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if len(data) != 0 {
		t.Fatalf("view of %d bytes, want 0", len(data))
	}
	_, err = HeaderBETR(data, path)
	if err == nil {
		t.Fatal("HeaderBETR over a zero-length file succeeded")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the file", err)
	}
}

// TestOpenMmapTruncatedMidVarint: a BETR file cut mid-record must fail
// with a positioned error — at open time when the header itself is cut,
// at decode time when an entry's delta varint is — never panic. The
// stream uses large address jumps so every delta varint is multi-byte
// and a one-byte truncation lands inside one; the width holds the
// largest address, about 2^50.
func TestOpenMmapTruncatedMidVarint(t *testing.T) {
	s := New("wide", 52)
	for i := 0; i < 64; i++ {
		s.Append(uint64(i)*0x1234_5678_9ABC, Instr)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		keep int
	}{
		{"mid-header", 6},               // inside magic/version/name-length region
		{"mid-payload", len(whole) - 1}, // inside the last entry's delta varint
		{"mid-middle", len(whole) / 2},
	} {
		path := filepath.Join(dir, tc.name+".betr")
		if err := os.WriteFile(path, whole[:tc.keep], 0o644); err != nil {
			t.Fatal(err)
		}
		r, closer, err := OpenFile(path, nil)
		if err == nil {
			// Header parsed; the truncation must surface while decoding.
			_, err = ReadAll(r)
			closer.Close()
			if err == nil {
				t.Errorf("%s: truncated file decoded cleanly", tc.name)
				continue
			}
			if !strings.Contains(err.Error(), "entry") {
				t.Errorf("%s: decode error %q not positioned at an entry", tc.name, err)
			}
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", tc.name, err)
		}
	}
}
