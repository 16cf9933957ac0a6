package trace

import (
	"fmt"
	"io"
	"os"
)

// Shard planning over a BETR byte view. The binary format is a varint
// delta chain — entry k's address is recoverable only from entry k-1's
// — so a byte range of the file is decodable on its own exactly when it
// comes with the address the chain held at its left edge. RangeCut
// captures that: the byte offset where an entry's record starts plus
// the two preceding entries (the first so the delta chain can continue,
// both so shard pricing can rebuild its encoder/decoder boundary, see
// codec.Boundary). IndexBETR produces the cuts with one cheap scan —
// no entries are materialized, no shard files are written — and
// NewMemRangeReader turns a cut back into a streaming reader over the
// same mapping. The distributed sweep (internal/dist) plans with
// IndexBETR in the coordinator — or, for a plan of one part, with
// HeaderBETR, which decodes no entry — and decodes with
// NewMemRangeReader in the workers; both sides share the kernel page
// cache, so a shard is never copied.

// RangeCut locates one shard boundary inside a BETR payload.
type RangeCut struct {
	// Entry is the global index of the first entry at or after the cut.
	Entry int64 `json:"entry"`
	// Off is the byte offset of that entry's record (its kind byte) in
	// the file. For the end-of-stream sentinel it is the payload end, or
	// the view's length in an index read from the header alone
	// (HeaderBETR).
	Off int64 `json:"off"`
	// PrevAddr and PrevKind describe entry Entry-1 (valid when
	// Entry >= 1): the delta base for decoding and the boundary entry a
	// shard re-encodes to prime its bus.
	PrevAddr uint64 `json:"prev_addr"`
	PrevKind Kind   `json:"prev_kind"`
	// Prev2Addr and Prev2Kind describe entry Entry-2 (valid when
	// Entry >= 2): the seed symbol for previous-symbol codecs.
	Prev2Addr uint64 `json:"prev2_addr"`
	Prev2Kind Kind   `json:"prev2_kind"`
}

// BETRIndex is the product of one planning scan: the header metadata
// plus parts+1 cuts — cuts[k] is entry k*Total/parts, cuts[parts] the
// end-of-stream sentinel — so shard k is entries
// [Cuts[k].Entry, Cuts[k+1].Entry) decoded from byte Cuts[k].Off.
type BETRIndex struct {
	Name  string     `json:"name"`
	Width int        `json:"width"`
	Total int64      `json:"total"`
	Cuts  []RangeCut `json:"cuts"`
}

// IndexBETR scans a BETR byte view (an mmap'd file or an in-memory
// buffer) and plans parts contiguous shards with sizes as equal as
// possible (cut k at entry k*n/parts). Errors are positioned like the
// streaming reader's; file may be empty.
func IndexBETR(data []byte, file string, parts int) (*BETRIndex, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("trace: plan of %d parts", parts)
	}
	m, err := newMemReader(data, file, nil, false)
	if err != nil {
		return nil, err
	}
	// Decode runs of up to a chunk's length that end at each target, and
	// take a cut's boundary entries from the end of the run before it.
	addrs := make([]uint64, max(min(m.fits, DefaultChunkLen), 1))
	kinds := make([]Kind, len(addrs))
	var prevAddr, prev2Addr uint64
	var prevKind, prev2Kind Kind
	pos := m.pos
	e := int64(0)
	scan := func(to int64) error {
		for e < to {
			n := min(int64(len(addrs)), to-e)
			next, bad, _, err := decodeBETR(data, pos, prevAddr, addrs[:n], kinds[:n])
			if err != nil {
				return m.ctx("entry %d: %v", e+int64(bad), err)
			}
			if n >= 2 {
				prev2Addr, prev2Kind = addrs[n-2], kinds[n-2]
			} else {
				prev2Addr, prev2Kind = prevAddr, prevKind
			}
			prevAddr, prevKind = addrs[n-1], kinds[n-1]
			pos = next
			e += n
		}
		return nil
	}
	if m.total > m.fits {
		// Every entry takes at least two bytes, so the body holds at
		// most fits of them: the scan fails before entry fits+1, and
		// reports where.
		if err := scan(int64(m.fits) + 1); err != nil {
			return nil, err
		}
		return nil, m.ctx("header declares %d entries; the body holds at most %d", m.total, m.fits)
	}
	total := int64(m.total)
	idx := &BETRIndex{Name: m.name, Width: m.width, Total: total, Cuts: make([]RangeCut, 0, parts+1)}
	// The k*n/p cut policy; repeated targets yield empty shards when
	// parts exceeds the entry count.
	for k := int64(0); k <= int64(parts); k++ {
		if err := scan(k * total / int64(parts)); err != nil {
			return nil, err
		}
		idx.Cuts = append(idx.Cuts, RangeCut{Entry: e, Off: int64(pos),
			PrevAddr: prevAddr, PrevKind: prevKind,
			Prev2Addr: prev2Addr, Prev2Kind: prev2Kind})
	}
	return idx, nil
}

// HeaderBETR plans a BETR byte view as one part from its header alone:
// Cuts[0] is entry 0 at the byte after the header and Cuts[1] the
// end-of-stream sentinel at entry Total, with Off the view's length and
// no previous entries, since no entry is decoded. A corrupt body is
// left for whoever decodes the range; a declared count the body cannot
// hold is refused here, because every entry takes at least two bytes.
func HeaderBETR(data []byte, file string) (*BETRIndex, error) {
	m, err := newMemReader(data, file, nil, false)
	if err != nil {
		return nil, err
	}
	body := len(data) - m.pos
	if most := uint64(body / 2); m.total > most {
		return nil, m.ctx("header declares %d entries; its %d-byte body holds at most %d", m.total, body, most)
	}
	return &BETRIndex{Name: m.name, Width: m.width, Total: int64(m.total), Cuts: []RangeCut{
		{Off: int64(m.pos)},
		{Entry: int64(m.total), Off: int64(len(data))},
	}}, nil
}

// NewMemRangeReader returns a streaming reader over n entries of a BETR
// byte view starting at cut (as planned by IndexBETR over the same
// view). name and width come from the BETRIndex; data is aliased, not
// copied, and must stay valid until the reader is done. Like the
// header readers, it refuses addresses above width.
func NewMemRangeReader(data []byte, name string, width int, cut RangeCut, n int64, file string, pool *ChunkPool) (ChunkReader, error) {
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("trace: range reader: bad width %d", width)
	}
	if cut.Off < 0 || cut.Off > int64(len(data)) {
		return nil, fmt.Errorf("trace: range cut at byte %d of a %d-byte view", cut.Off, len(data))
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: range of %d entries", n)
	}
	return &memChunkReader{
		data:      data,
		pos:       int(cut.Off),
		file:      file,
		name:      name,
		width:     width,
		total:     uint64(n),
		remaining: uint64(n),
		prev:      cut.PrevAddr,
		pool:      orDefaultPool(pool),
	}, nil
}

// MapBytes opens a regular file as a read-only byte view: memory-mapped
// where the platform supports it, read fully into memory otherwise.
// The Closer unmaps and closes the file and must be called only after
// the view is no longer referenced. It is the raw-bytes sibling of
// OpenFile's mmap path for callers — like the shard planner — that need
// the view itself, not a decoder over it.
func MapBytes(path string) ([]byte, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if !st.Mode().IsRegular() {
		f.Close()
		return nil, nil, fmt.Errorf("trace: %s: not a regular file", path)
	}
	if data, err := mapFile(f, st.Size()); err == nil {
		recordMmapOpen(int64(len(data)), false)
		return data, &mappedCloser{data: data, unmap: true, f: f}, nil
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	recordMmapOpen(int64(len(data)), true)
	return data, &mappedCloser{}, nil
}
