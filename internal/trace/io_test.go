package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func randomStream(n int, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	s := New("rand", 32)
	for i := 0; i < n; i++ {
		s.Append(rng.Uint64()&0xFFFFFFFF, Kind(rng.Intn(3)))
	}
	return s
}

// readText and readBinary materialize a trace read with no file name.
func readText(r io.Reader) (*Stream, error)   { return ReadTextNamed(r, "") }
func readBinary(r io.Reader) (*Stream, error) { return ReadBinaryNamed(r, "") }

func streamsEqual(a, b *Stream) bool {
	if a.Name != b.Name || a.Width != b.Width || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	s := randomStream(500, 1)
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := readText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s, got) {
		t.Error("text round trip mismatch")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := randomStream(500, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := readBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s, got) {
		t.Error("binary round trip mismatch")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	s := New("empty", 24)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := readBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "empty" || got.Width != 24 || got.Len() != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestBinaryCompactOnSequential(t *testing.T) {
	s := New("seq", 32)
	for i := 0; i < 1000; i++ {
		s.Append(0x400000+uint64(i)*4, Instr)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	// Delta coding means ~2 bytes per sequential entry.
	if buf.Len() > 3*1000 {
		t.Errorf("sequential trace encoded in %d bytes; delta coding broken?", buf.Len())
	}
}

func TestReadTextParsesMetadata(t *testing.T) {
	in := "# busenc trace v1\n# name: hello\n# width: 24\nI 400000\nR ff\n\nW 10\n"
	s, err := readText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "hello" || s.Width != 24 {
		t.Errorf("metadata: name=%q width=%d", s.Name, s.Width)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Entries[0] != (Entry{0x400000, Instr}) ||
		s.Entries[1] != (Entry{0xff, DataRead}) ||
		s.Entries[2] != (Entry{0x10, DataWrite}) {
		t.Errorf("entries: %+v", s.Entries)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"I\n",                                // missing address
		"X 400000\n",                         // unknown kind
		"I zzz\n",                            // bad hex
		"# width: x\n",                       // bad width
		"# width: 65\n",                      // width beyond 64 lines
		"I 1 2 3\n",                          // too many fields
		"# width: 16\nI 400000\n",            // entry exceeds declared width
		"I 10000000000000000\n",              // overflows 64 bits
		"# width: 64\nI 1ffffffffffffffff\n", // overflows even at full width
	}
	for _, in := range cases {
		if _, err := readText(strings.NewReader(in)); err == nil {
			t.Errorf("readText(%q) succeeded, want error", in)
		}
	}
}

// TestReadTextErrorPositions pins the satellite contract: every parse
// error carries the filename (when known) and the 1-based line number.
func TestReadTextErrorPositions(t *testing.T) {
	in := "# name: x\nI 400000\nQ 1234\n"
	_, err := ReadTextNamed(strings.NewReader(in), "prog.trace")
	if err == nil {
		t.Fatal("bad kind accepted")
	}
	if !strings.Contains(err.Error(), "prog.trace:3:") {
		t.Errorf("error %q does not carry file:line position", err)
	}
	_, err = readText(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("anonymous reader error %q does not carry line number", err)
	}
	// Width rejection reports the position of the offending entry.
	in = "# width: 12\nI fff\nI 1000\n"
	_, err = ReadTextNamed(strings.NewReader(in), "w.trace")
	if err == nil || !strings.Contains(err.Error(), "w.trace:3:") || !strings.Contains(err.Error(), "width 12") {
		t.Errorf("width rejection error %q lacks position or width", err)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := readBinary(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := readBinary(bytes.NewReader([]byte("BET"))); err == nil {
		t.Error("truncated magic accepted")
	}
	// Version 2 is unknown.
	if _, err := readBinary(bytes.NewReader([]byte{'B', 'E', 'T', 'R', 2, 32, 0, 0})); err == nil {
		t.Error("unknown version accepted")
	}
	// Truncated entry section.
	var buf bytes.Buffer
	s := randomStream(10, 3)
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := readBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestBinaryRejectsBadKind(t *testing.T) {
	// Handcraft: magic, v1, width 8, name "", count 1, kind 7, delta 0.
	raw := []byte{'B', 'E', 'T', 'R', 1, 8, 0, 1, 7, 0}
	if _, err := readBinary(bytes.NewReader(raw)); err == nil {
		t.Error("bad kind accepted")
	}
}

// TestReadersAgreeOnWidths writes the same stream as text and as BETR
// and reads it through every reader: OpenFile (the mmap decoder for
// BETR, the buffered parser for text), OpenBinary over a plain reader,
// OpenText, and IndexBETR plus NewMemRangeReader (the dist planner and
// its workers). All of them accept it with the same entries, or all
// refuse it: a width outside 1..64, or an address above the declared
// width, which every codec's payload mask would otherwise truncate. An
// address refusal is positioned at its entry (BETR) or line (text),
// also where it is the last or the first entry of a 4096-entry chunk.
func TestReadersAgreeOnWidths(t *testing.T) {
	// overAt is n in-width addresses with a 9-bit one at entry at.
	overAt := func(n, at int) []uint64 {
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(i) * 4 & 0xff
		}
		addrs[at] = 0x100
		return addrs
	}
	for _, tc := range []struct {
		width int
		addrs []uint64
		want  string // substring of every refusal; "" accepts
		entry int    // the refused entry, when an address is refused
	}{
		{0, []uint64{0, 0}, "bad width", 0},
		{1, []uint64{0, 1, 1, 0}, "", 0},
		{8, []uint64{0x10, 0xff, 0x40000000, 0x20}, "address 0x40000000 exceeds declared width 8", 2},
		{8, []uint64{0x10, 0xff, 0x00, 0x20}, "", 0},
		{8, overAt(DefaultChunkLen+10, DefaultChunkLen-1), "address 0x100 exceeds declared width 8", DefaultChunkLen - 1},
		{8, overAt(DefaultChunkLen+10, DefaultChunkLen), "address 0x100 exceeds declared width 8", DefaultChunkLen},
		{64, []uint64{0, ^uint64(0), 1 << 63, 4}, "", 0},
		{65, []uint64{0, 4}, "bad width", 0},
		{200, []uint64{0, 4}, "bad width", 0},
	} {
		s := New("w", tc.width)
		for i, a := range tc.addrs {
			s.Append(a, Kind(i%3))
		}
		var bin, txt bytes.Buffer
		if err := WriteBinary(&bin, s); err != nil {
			t.Fatal(err)
		}
		if err := WriteText(&txt, s); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		open := map[string]func() (ChunkReader, error){
			"OpenBinary": func() (ChunkReader, error) { return OpenBinary(bytes.NewReader(bin.Bytes()), "", nil) },
			"OpenText":   func() (ChunkReader, error) { return OpenText(bytes.NewReader(txt.Bytes()), "", nil) },
			"NewMemRangeReader": func() (ChunkReader, error) {
				idx, err := IndexBETR(bin.Bytes(), "", 1)
				if err != nil {
					return nil, err
				}
				return NewMemRangeReader(bin.Bytes(), idx.Name, idx.Width, idx.Cuts[0], idx.Total, "", nil)
			},
		}
		for name, data := range map[string][]byte{"bin": bin.Bytes(), "txt": txt.Bytes()} {
			path := filepath.Join(dir, "w."+name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			open["OpenFile/"+name] = func() (ChunkReader, error) {
				r, closer, err := OpenFile(path, nil)
				if err == nil {
					t.Cleanup(func() { closer.Close() })
				}
				return r, err
			}
		}
		for name, fn := range open {
			label := fmt.Sprintf("width %d/%s", tc.width, name)
			r, err := fn()
			var got *Stream
			if err == nil {
				got, err = ReadAll(r)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s: refused: %v", label, err)
			case tc.want == "" && !streamsEqual(s, got):
				t.Errorf("%s: read %+v, want %+v", label, got, s)
			case tc.want != "" && err == nil:
				t.Errorf("%s: accepted %d entries at width %d", label, got.Len(), got.Width)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s: error %q, want %q", label, err, tc.want)
			}
			// WriteText puts three metadata lines before the entries.
			pos := fmt.Sprintf("entry %d: ", tc.entry)
			if strings.HasSuffix(name, "Text") || strings.HasSuffix(name, "txt") {
				pos = fmt.Sprintf("%d: ", tc.entry+4)
			}
			if tc.entry > 0 && err != nil && !strings.Contains(err.Error(), pos) {
				t.Errorf("%s: error %q not positioned at %q", label, err, pos)
			}
		}
	}
}
