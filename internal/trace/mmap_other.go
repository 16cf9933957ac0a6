//go:build !linux && !darwin

package trace

import "os"

// No mmap on this platform: MapBytes' read-into-memory fallback and
// OpenFile's streaming path carry the load instead.
func mapFile(f *os.File, size int64) ([]byte, error) { return nil, errMmapUnsupported }

func unmapFile(data []byte) error { return nil }
