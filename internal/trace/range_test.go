package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIndexBETRRangeParity: cutting a serialized stream into parts with
// IndexBETR and re-decoding every part through NewMemRangeReader must
// reproduce the original entries exactly — cut metadata (byte offsets,
// delta bases, boundary entries) included.
func TestIndexBETRRangeParity(t *testing.T) {
	for _, s := range []*Stream{randomStream(4000, 19), smallDeltaStream(4000, 19)} {
		indexRangeParity(t, s)
	}
}

func indexRangeParity(t *testing.T, s *Stream) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, parts := range []int{1, 2, 3, 7, 16, 63} {
		idx, err := IndexBETR(data, "mem", parts)
		if err != nil {
			t.Fatalf("parts=%d: IndexBETR: %v", parts, err)
		}
		if idx.Name != s.Name || idx.Width != s.Width || idx.Total != int64(s.Len()) {
			t.Fatalf("parts=%d: header %q/%d/%d", parts, idx.Name, idx.Width, idx.Total)
		}
		if len(idx.Cuts) != parts+1 {
			t.Fatalf("parts=%d: %d cuts", parts, len(idx.Cuts))
		}
		for k := 0; k < parts; k++ {
			cut, next := idx.Cuts[k], idx.Cuts[k+1]
			n := next.Entry - cut.Entry
			r, err := NewMemRangeReader(data, idx.Name, idx.Width, cut, n, "mem", NewChunkPool(13))
			if err != nil {
				t.Fatalf("parts=%d shard=%d: %v", parts, k, err)
			}
			got, err := ReadAll(r)
			if err != nil {
				t.Fatalf("parts=%d shard=%d: decode: %v", parts, k, err)
			}
			want := s.Entries[cut.Entry:next.Entry]
			if len(got.Entries) != len(want) {
				t.Fatalf("parts=%d shard=%d: %d entries, want %d", parts, k, len(got.Entries), len(want))
			}
			for i := range want {
				if got.Entries[i] != want[i] {
					t.Fatalf("parts=%d shard=%d: entry %d = %+v, want %+v", parts, k, i, got.Entries[i], want[i])
				}
			}
			// Boundary metadata: entries -1 and -2 relative to the cut.
			if cut.Entry >= 1 {
				e := s.Entries[cut.Entry-1]
				if cut.PrevAddr != e.Addr || cut.PrevKind != e.Kind {
					t.Fatalf("parts=%d shard=%d: prev = %#x/%v, want %#x/%v",
						parts, k, cut.PrevAddr, cut.PrevKind, e.Addr, e.Kind)
				}
			}
			if cut.Entry >= 2 {
				e := s.Entries[cut.Entry-2]
				if cut.Prev2Addr != e.Addr || cut.Prev2Kind != e.Kind {
					t.Fatalf("parts=%d shard=%d: prev2 mismatch", parts, k)
				}
			}
		}
	}
}

// TestIndexBETRMorePartsThanEntries: over-splitting a tiny stream
// yields empty shards that still decode (to nothing) and still carry
// correct boundary metadata.
func TestIndexBETRMorePartsThanEntries(t *testing.T) {
	s := randomStream(3, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	idx, err := IndexBETR(buf.Bytes(), "", 8)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for k := 0; k < 8; k++ {
		total += idx.Cuts[k+1].Entry - idx.Cuts[k].Entry
	}
	if total != 3 {
		t.Fatalf("shard sizes sum to %d, want 3", total)
	}
}

// TestIndexBETRErrors: malformed views fail with positioned errors.
func TestIndexBETRErrors(t *testing.T) {
	s := randomStream(100, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := IndexBETR(data, "", 0); err == nil {
		t.Error("0 parts accepted")
	}
	if _, err := IndexBETR(nil, "x.betr", 2); err == nil || !strings.Contains(err.Error(), "x.betr") {
		t.Errorf("empty view: err = %v, want positioned error", err)
	}
	// Truncate inside the entry payload: the scan must fail, not panic.
	for _, cut := range []int{len(data) - 1, len(data) / 2, 12} {
		if cut <= 0 || cut >= len(data) {
			continue
		}
		if _, err := IndexBETR(data[:cut], "t.betr", 4); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := IndexBETR(oneByteBadKind(t), "f", 2); err == nil || err.Error() != "trace: f: entry 1: bad kind 7" {
		t.Errorf("bad kind before a one-byte delta: got %v", err)
	}
}

// TestMapBytesRoundTrip: the raw view matches the file, and the closer
// releases it.
func TestMapBytesRoundTrip(t *testing.T) {
	s := randomStream(500, 2)
	path := writeBinaryFile(t, s)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data, closer, err := MapBytes(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("mapped view diverges from file contents")
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MapBytes(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}
