//go:build unix

package filevol

import "syscall"

// lend returns the bytes [start, end) of the area as a read-only slice of
// its shared mapping, mapping the area's full capacity on first use so
// later growth of the file never needs a remap. v.mu held; end must not
// pass the file's end.
func (a *areaFile) lend(start, end int64, pageSize int) ([]byte, error) {
	if a.m == nil {
		m, err := syscall.Mmap(int(a.f.Fd()), 0, a.npages*pageSize, syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return nil, err
		}
		a.m = m
	}
	return a.m[start:end:end], nil
}

// unmap drops the area's mapping, if any. v.mu held, no view in use.
func (a *areaFile) unmap() error {
	if a.m == nil {
		return nil
	}
	err := syscall.Munmap(a.m)
	a.m = nil
	return err
}
