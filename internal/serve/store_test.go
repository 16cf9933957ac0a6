package serve

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"

	"busenc/internal/trace"
)

// FuzzIngest feeds arbitrary upload bodies to Store.Ingest, the sniff
// and parse every tenant's bytes go through, into one store that
// already holds a trace (and keeps every body accepted before). A refused body leaves no file behind and the listing
// unchanged. An accepted one has a width of 1..64 lines, and Store.Open
// (the mmap decoder that later prices it) reads back exactly the
// entries, width and name Ingest reported, every address inside that
// width, the width fixed from the moment the trace opens.
func FuzzIngest(f *testing.F) {
	s := trace.New("seed", 32)
	for i := 0; i < 40; i++ {
		s.Append(0x400000+uint64(4*i), trace.Kind(i%3))
	}
	var betr, text bytes.Buffer
	if err := trace.WriteBinary(&betr, s); err != nil {
		f.Fatal(err)
	}
	if err := trace.WriteText(&text, s); err != nil {
		f.Fatal(err)
	}
	f.Add(betr.Bytes())
	f.Add(text.Bytes())
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 0, 0, 2, 0, 8, 0, 2})          // width 0
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0, 2, 0, 8, 0, 0x80, 0x10}) // address 0x404 at width 8
	f.Add(betr.Bytes()[:betr.Len()-3])                                 // truncated
	f.Add([]byte("BETR is not a header\nI 4\n"))                       // text that starts with the magic
	st, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.Ingest(bytes.NewReader(betr.Bytes()), 0); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before, files := st.List(), storeFiles(t, st)
		meta, err := st.Ingest(bytes.NewReader(data), 1<<12)
		if err != nil {
			if got := st.List(); !reflect.DeepEqual(got, before) {
				t.Fatalf("refused upload (%v) changed the listing: %+v", err, got)
			}
			if got := storeFiles(t, st); !reflect.DeepEqual(got, files) {
				t.Fatalf("refused upload (%v) left files %v", err, got)
			}
			return
		}
		if meta.Width < 1 || meta.Width > 64 {
			t.Fatalf("accepted width %d", meta.Width)
		}
		r, closer, err := st.Open(meta.Digest, nil)
		if err != nil {
			t.Fatalf("Open of an accepted trace: %v", err)
		}
		defer closer.Close()
		if r.Width() != meta.Width {
			t.Fatalf("opens at width %d, Ingest reported %d", r.Width(), meta.Width)
		}
		above := ^uint64(0) << meta.Width // 0 at width 64
		var entries int64
		for {
			ch, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("decoding an accepted trace: %v", err)
			}
			for i, a := range ch.Addrs {
				if a&above != 0 {
					t.Fatalf("entry %d: address %#x above width %d", entries+int64(i), a, meta.Width)
				}
			}
			entries += int64(ch.Len())
			ch.Release()
		}
		if entries != meta.Entries || r.Width() != meta.Width || r.Name() != meta.Name {
			t.Fatalf("Open read %d entries, width %d, name %q; Ingest reported %d, %d, %q",
				entries, r.Width(), r.Name(), meta.Entries, meta.Width, meta.Name)
		}
	})
}

// storeFiles lists the names in the store's directory.
func storeFiles(t *testing.T, st *Store) []string {
	t.Helper()
	des, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}
