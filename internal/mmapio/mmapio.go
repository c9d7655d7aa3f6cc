// Package mmapio maps files read-only into memory so large immutable
// artifacts (index snapshots) can be served as views over the page
// cache instead of being copied onto the Go heap.
//
// On Linux the mapping is a real mmap(2); elsewhere Open falls back to
// reading the file into a heap buffer behind the same API, so callers
// never branch on platform.
//
// Lifetime contract: a Mapping is never unmapped while any subslice of
// Data() may still be reachable. Go slices do not keep the mapping
// alive for the runtime — a []byte view into munmap'd memory faults on
// first touch — so the safe discipline for a serving process is to
// keep mappings open until process exit. Close exists for callers that
// can prove no views escaped (tests, failed attaches); production code
// paths deliberately leak mappings instead.
package mmapio

import (
	"fmt"
	"os"
)

// Mapping is a read-only byte view over a file. The zero value is not
// usable; obtain one from Open.
type Mapping struct {
	data   []byte
	mapped bool // true when data is mmap-backed (unmappable), false when heap
	closed bool
}

// Data returns the mapped bytes. The slice must be treated as
// immutable: on Linux it points at PROT_READ pages and any write
// faults the process.
func (m *Mapping) Data() []byte { return m.data }

// Mapped reports whether the bytes live in a real memory mapping
// (true) or a heap fallback buffer (false).
func (m *Mapping) Mapped() bool { return m.mapped }

// Len returns the mapping's size in bytes.
func (m *Mapping) Len() int { return len(m.data) }

// Close releases the mapping. Only call it when no subslice of Data
// can still be referenced anywhere — see the package comment. Closing
// a heap-backed mapping just drops the buffer. Close is not safe to
// call concurrently with readers.
func (m *Mapping) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	data := m.data
	m.data = nil
	if !m.mapped {
		return nil
	}
	return unmap(data)
}

// Open maps path read-only. An empty file yields an empty, valid
// mapping. The returned Mapping holds no open file descriptor — the
// kernel keeps mmap'd pages alive without one, and the heap fallback
// reads the file eagerly.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mmapio: stat %s: %w", path, err)
	}
	size := fi.Size()
	if size == 0 {
		return &Mapping{data: nil, mapped: false}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapio: %s: %d bytes exceeds address space", path, size)
	}
	return openFile(f, int(size))
}
