//go:build !unix

package filevol

import (
	"errors"
	"io"
)

// lend preads the bytes [start, end) of the area into a fresh buffer:
// without mmap a view costs one allocation and one copy. v.mu held.
func (a *areaFile) lend(start, end int64, _ int) ([]byte, error) {
	b := make([]byte, end-start)
	m, err := a.f.ReadAt(b, start)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	clear(b[m:])
	return b, nil
}

// unmap is a no-op: nothing is mapped.
func (a *areaFile) unmap() error { return nil }
