package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"regexp"
	"slices"
	"testing"
)

// Fuzz targets for the streaming trace parsers. The seed corpus covers
// the header grammar, each entry kind, metadata edge cases, and the
// known rejection paths; `go test` runs the seeds as regular tests and
// `go test -fuzz=FuzzReadText ./internal/trace` explores further.

func FuzzReadText(f *testing.F) {
	seeds := []string{
		"",
		"\n\n",
		"# busenc trace v1\n# name: prog\n# width: 32\nI 400000\nR 10008fa0\nW 10008fa4\n",
		"# width: 16\nI ffff\n",
		"# width: 16\nI 10000\n", // exceeds declared width
		"# width: 64\nI ffffffffffffffff\n",
		"# width: 65\n", // invalid width
		"# name: spaces in name\nI 0\n",
		"I 0\n# width: 8\nR ff\n",  // width changed after an entry
		"I 0\n# width: 32\nR ff\n", // width repeated after an entry
		"X 400000\n",
		"I zzz\n",
		"I 1 2 3\n",
		"I\n",
		"# comment with no colon\nI 4\n",
		"I 00000000000000000001\n", // long leading zeros
		"\tI\t400000\t\r\n",        // tabs and CR
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := readText(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The width is fixed before the first entry, so every accepted
		// address fits the width the trace reports.
		mask := widthMask(s.Width)
		for i, e := range s.Entries {
			if e.Addr&^mask != 0 {
				t.Fatalf("entry %d: address %#x above width %d accepted", i, e.Addr, s.Width)
			}
		}
		// A successfully parsed trace must survive a write/reparse
		// round trip unchanged.
		var buf bytes.Buffer
		if err := WriteText(&buf, s); err != nil {
			t.Fatalf("WriteText of parsed stream: %v", err)
		}
		got, err := readText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written stream: %v", err)
		}
		if len(got.Entries) != len(s.Entries) {
			t.Fatalf("round trip changed length: %d -> %d", len(s.Entries), len(got.Entries))
		}
		for i := range s.Entries {
			if s.Entries[i] != got.Entries[i] {
				t.Fatalf("entry %d changed: %+v -> %+v", i, s.Entries[i], got.Entries[i])
			}
		}
	})
}

// readChunks is ReadAll without its preallocation, which a fuzzed header's
// entry count would otherwise size at up to 64 MiB per input.
func readChunks(r ChunkReader) (*Stream, error) {
	s := New(r.Name(), r.Width())
	for {
		ch, err := r.Next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		for i, a := range ch.Addrs {
			s.Append(a, ch.Kinds[i])
		}
		ch.Release()
	}
}

func FuzzReadBinary(f *testing.F) {
	// Well-formed seeds from the writer plus handcrafted corruptions.
	mk := func(n int, seed int64) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, randomStream(n, seed)); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	f.Add(mk(0, 1))
	f.Add(mk(1, 2))
	f.Add(mk(100, 3))
	f.Add([]byte("BETR"))
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 32, 0, 0})
	f.Add([]byte{'B', 'E', 'T', 'R', 2, 32, 0, 0})               // bad version
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0, 1, 7, 0})          // bad kind
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0xFF, 0xFF, 0xFF, 4}) // huge name length
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0, 3, 0, 2, 1, 4})    // truncated entries
	// A 35-byte file whose header declares ~750M entries: ReadAll once
	// preallocated all of them and died out of memory.
	f.Add([]byte("BETR\x01\r\x00\xe6\x92\xfc\xe4\x02\x01\x91\xa0\xb8\xc0\v\x01\xb8\x9f\xa80\x02\xfc\xa0\x9d\x95\t\x00\xf3\xe1\xef\xdf\xc8"))
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 0, 0, 1, 0, 2})  // width 0
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 65, 0, 1, 0, 2}) // width 65
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 4, 0, 1, 0, 64}) // address 32 at width 4
	for _, seed := range varintSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The streaming decoder (pipes) and the in-memory decoder (mmap
		// views) must read the same trace or both refuse it.
		var piped, mapped *Stream
		p, perr := OpenBinary(bytes.NewReader(data), "", nil)
		if perr == nil {
			piped, perr = readChunks(p)
		}
		m, merr := newMemReader(data, "", nil, false)
		if merr == nil {
			mapped, merr = readChunks(m)
		}
		if (perr == nil) != (merr == nil) || errEntry(perr) != errEntry(merr) {
			t.Fatalf("OpenBinary error %v, in-memory decoder error %v", perr, merr)
		}
		if perr != nil {
			return
		}
		if !streamsEqual(piped, mapped) {
			t.Fatalf("decoders disagree: OpenBinary %q/%d/%d entries, in-memory %q/%d/%d entries",
				piped.Name, piped.Width, piped.Len(), mapped.Name, mapped.Width, mapped.Len())
		}
		// ReadAll drains either decoder to the same entries, whatever
		// count the header declared.
		p, _ = OpenBinary(bytes.NewReader(data), "", nil)
		m, _ = newMemReader(data, "", nil, false)
		for _, r := range []ChunkReader{p, m} {
			all, err := ReadAll(r)
			if err != nil {
				t.Fatalf("ReadAll of an accepted trace: %v", err)
			}
			if !streamsEqual(all, piped) {
				t.Fatalf("ReadAll read %d entries, the chunks %d", all.Len(), piped.Len())
			}
		}
		if piped.Width < 1 || piped.Width > 64 {
			t.Fatalf("width %d accepted", piped.Width)
		}
		mask := widthMask(piped.Width)
		for i, e := range piped.Entries {
			if e.Addr&^mask != 0 {
				t.Fatalf("entry %d: address %#x above width %d accepted", i, e.Addr, piped.Width)
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, piped); err != nil {
			t.Fatalf("WriteBinary of parsed stream: %v", err)
		}
		got, err := readBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written stream: %v", err)
		}
		if !streamsEqual(piped, got) {
			t.Fatal("binary round trip changed the stream")
		}
	})
}

// errEntry returns the "entry N" an error names, or "" for none.
func errEntry(err error) string {
	if err == nil {
		return ""
	}
	return entryRE.FindString(err.Error())
}

var entryRE = regexp.MustCompile(`entry \d+:`)

// rawBETR is a BETR file of the given width, no name, and a header that
// declares count entries, followed by body as it is.
func rawBETR(width byte, count int, body []byte) []byte {
	b := binary.AppendUvarint([]byte{'B', 'E', 'T', 'R', 1, width, 0}, uint64(count))
	return append(b, body...)
}

// varintSeeds reaches every path of the in-memory decoder's loop: each
// varint length from 1 to 10 bytes both with at least 9 bytes left in
// the view (the inline path, or decodeBETREntry past 8 bytes) and as the
// view's last entry (1 to 10 bytes left); a 10th byte that overflows,
// an 11th byte, and a varint cut short, at the end of the view and in
// the middle of the header's count; a bad kind with bytes to spare; and
// an address above the width in mid-chunk.
func varintSeeds() [][]byte {
	entry := func(kind byte, delta int64) []byte { return binary.AppendVarint([]byte{kind}, delta) }
	pad := bytes.Repeat(entry(0, 2), 8) // eight 2-byte entries
	var seeds [][]byte
	for k := 1; k <= 10; k++ {
		// The smallest delta whose zig-zag varint takes k bytes.
		var delta int64
		switch k {
		case 1:
			delta = 1
		case 10:
			delta = -1 << 63
		default:
			delta = 1 << (7*(k-1) - 1)
		}
		e := entry(byte(k%3), delta)
		if len(e) != k+1 {
			panic(fmt.Sprintf("%d-byte varint seed encodes to %d bytes", k, len(e)-1))
		}
		mid := append(append(slices.Clone(pad), e...), pad...)
		seeds = append(seeds, rawBETR(64, 17, mid), rawBETR(64, 9, append(slices.Clone(pad), e...)))
	}
	overflow := append([]byte{0}, bytes.Repeat([]byte{0xff}, 9)...)
	long := append([]byte{0}, bytes.Repeat([]byte{0x80}, 10)...)
	seeds = append(seeds,
		rawBETR(64, 18, append(append(slices.Clone(pad), append(overflow, 0x02)...), pad...)), // 10th byte overflows
		rawBETR(64, 18, append(append(slices.Clone(pad), append(long, 0x00)...), pad...)),     // 11th byte
		rawBETR(64, 9, append(slices.Clone(pad), 0)),                                          // a kind byte, no varint
		rawBETR(64, 9, append(slices.Clone(pad), 1, 0x80, 0x80)),                              // varint cut short
		rawBETR(64, 9, append(slices.Clone(pad), overflow...)),                                // nine continuation bytes, then the end
		rawBETR(64, 17, append(append(slices.Clone(pad), 3, 0x02), pad...)),                   // bad kind
		rawBETR(64, 17, append(append(slices.Clone(pad), 0xff, 0x80, 0x01), pad...)),          // bad kind before a 2-byte varint
	)
	var wide []byte
	for i := 0; i < 200; i++ {
		d := int64(4)
		if i == 120 {
			d = 1 << 20 // past width 16, mid-chunk
		}
		wide = append(wide, entry(byte(i%3), d)...)
	}
	return append(seeds, rawBETR(16, 200, wide))
}
