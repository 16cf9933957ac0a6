package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Text format: a human-readable trace file.
//
//	# busenc trace v1
//	# name: <name>
//	# width: <bits>
//	I 00400000
//	R 10008fa0
//	W 10008fa4
//
// Lines starting with '#' are comments; each entry line is "<kind> <hex>".
// The "name:" metadata comment applies from the point it appears. The
// "width:" comment must come before the first entry (a later one may
// only repeat it), because every codec is built at the width a trace
// opens with; WriteText emits both before the first entry. Width
// defaults to 32, and an entry whose address does not fit in the
// declared width is a parse error (it would otherwise be silently
// truncated by every codec's payload mask).
//
// Parsing is served by the streaming reader in streamio.go:
// ReadTextNamed is a convenience that materializes the whole trace; use
// OpenText (or OpenFile) to iterate pooled chunks in bounded memory.

// WriteText writes the stream in the text trace format.
func WriteText(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# busenc trace v1\n# name: %s\n# width: %d\n", s.Name, s.Width)
	for _, e := range s.Entries {
		fmt.Fprintf(bw, "%s %x\n", e.Kind, e.Addr)
	}
	return bw.Flush()
}

// ReadTextNamed parses a text trace, materializing it fully. Errors
// carry file (when not empty) and the 1-based line number
// ("trace: file.txt:17: ...").
func ReadTextNamed(r io.Reader, file string) (*Stream, error) {
	cr, err := OpenText(r, file, nil)
	if err != nil {
		return nil, err
	}
	return ReadAll(cr)
}

// Binary format: a compact delta-encoded trace.
//
// Header layout (all multi-byte integers are unsigned LEB128 varints as
// produced by encoding/binary.PutUvarint):
//
//	offset  field
//	0       magic "BETR" (4 bytes)
//	4       version (u8; currently 1)
//	5       width (u8; significant address bits, 1..64)
//	6       nameLen (uvarint) followed by nameLen bytes of stream name
//	...     count (uvarint): number of entries that follow
//
// Each entry is then one byte of Kind (0=I, 1=R, 2=W) followed by the
// signed zig-zag varint delta of the address relative to the previous
// entry's address (the implicit address before the first entry is 0).
// Delta coding makes sequential traces extremely small: an in-sequence
// run costs two bytes per reference. Readers refuse a width outside
// 1..64 and an address with bits above the width, as the text reader
// does.
//
// The count field lets readers preallocate and detect truncation; it
// also means WriteBinary needs the whole stream up front. Streaming
// reads never need the whole trace: OpenBinary decodes pooled chunks.

const binMagic = "BETR"

// WriteBinary writes the stream in the compact binary trace format.
func WriteBinary(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	bw.WriteByte(1)
	bw.WriteByte(byte(s.Width))
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s.Name)))
	bw.Write(buf[:n])
	bw.WriteString(s.Name)
	n = binary.PutUvarint(buf[:], uint64(len(s.Entries)))
	bw.Write(buf[:n])
	prev := uint64(0)
	for _, e := range s.Entries {
		bw.WriteByte(byte(e.Kind))
		delta := int64(e.Addr - prev)
		n = binary.PutVarint(buf[:], delta)
		bw.Write(buf[:n])
		prev = e.Addr
	}
	return bw.Flush()
}

// ReadBinaryNamed parses a binary trace, materializing it fully; file
// positions errors and may be empty. Use OpenBinary (or OpenFile) to
// iterate pooled chunks in bounded memory.
func ReadBinaryNamed(r io.Reader, file string) (*Stream, error) {
	cr, err := OpenBinary(r, file, nil)
	if err != nil {
		return nil, err
	}
	return ReadAll(cr)
}
