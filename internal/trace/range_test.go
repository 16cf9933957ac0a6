package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	// A declared count past what the body holds, up to 2^64-1, fails
	// at the first entry the body lacks.
	for _, count := range []int{3, 1 << 40, -1} {
		for _, body := range [][]byte{nil, {0, 2, 1, 4}} {
			want := fmt.Sprintf("trace: c: entry %d: unexpected EOF", len(body)/2)
			if _, err := IndexBETR(rawBETR(32, count, body), "c", 4); err == nil || err.Error() != want {
				t.Errorf("count %d over %d body bytes: err = %v, want %q", uint64(count), len(body), err, want)
			}
		}
	}
}

// TestHeaderBETR: the header-only index of a well-formed view agrees
// with a one-part scan on everything but the end cut's boundary
// entries, which it never decodes, and its range reader decodes the
// whole stream. A declared count the body cannot hold is refused with
// both counts; a bad header fails as the scan fails.
func TestHeaderBETR(t *testing.T) {
	for _, s := range []*Stream{randomStream(4000, 23), randomStream(0, 23)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		got, err := HeaderBETR(data, "h.betr")
		if err != nil {
			t.Fatal(err)
		}
		want, err := IndexBETR(data, "h.betr", 1)
		if err != nil {
			t.Fatal(err)
		}
		end := want.Cuts[1]
		want.Cuts[1] = RangeCut{Entry: end.Entry, Off: end.Off}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d entries: header-only index %+v, want %+v", s.Len(), got, want)
		}
		r, err := NewMemRangeReader(data, got.Name, got.Width, got.Cuts[0], got.Total, "h.betr", nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != s.Len() || (s.Len() > 0 && !reflect.DeepEqual(back.Entries, s.Entries)) {
			t.Errorf("%d entries: range reader over the header-only cut diverges", s.Len())
		}
	}
	s := randomStream(100, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	idx, err := IndexBETR(data, "", 100)
	if err != nil {
		t.Fatal(err)
	}
	short := data[:idx.Cuts[10].Off]
	body := len(short) - int(idx.Cuts[0].Off)
	want := fmt.Sprintf("trace: s.betr: header declares 100 entries; its %d-byte body holds at most %d", body, body/2)
	if _, err := HeaderBETR(short, "s.betr"); err == nil || err.Error() != want {
		t.Errorf("short body: err = %v, want %q", err, want)
	}
	for _, bad := range [][]byte{nil, []byte("BETX\x01\x20"), data[:5]} {
		_, herr := HeaderBETR(bad, "b.betr")
		_, ierr := IndexBETR(bad, "b.betr", 1)
		if herr == nil || ierr == nil || herr.Error() != ierr.Error() {
			t.Errorf("header %q: HeaderBETR err = %v, IndexBETR err = %v", bad, herr, ierr)
		}
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
