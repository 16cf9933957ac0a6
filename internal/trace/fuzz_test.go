package trace

import (
	"bytes"
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
		"I 0\n# width: 8\nR ff\n", // metadata after entries
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
		s, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Width metadata applies from where it appears, so a comment
		// after the entries can legally narrow the declared width below
		// earlier addresses; such streams do not reparse and are out of
		// scope for the round-trip invariant.
		mask := widthMask(s.Width)
		for _, e := range s.Entries {
			if e.Addr&^mask != 0 {
				return
			}
		}
		// A successfully parsed trace must survive a write/reparse
		// round trip unchanged.
		var buf bytes.Buffer
		if err := WriteText(&buf, s); err != nil {
			t.Fatalf("WriteText of parsed stream: %v", err)
		}
		got, err := ReadText(bytes.NewReader(buf.Bytes()))
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
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatalf("WriteBinary of parsed stream: %v", err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written stream: %v", err)
		}
		if !streamsEqual(s, got) {
			t.Fatal("binary round trip changed the stream")
		}
	})
}
