package engine

import (
	"sync"

	"lobstore/internal/disk"
)

// LatchedVolume serializes access to a volume implementation that is not
// safe for concurrent use — the in-memory backend, whose WriteRun
// reallocates area storage. A pinned read takes the latch only to be lent
// its views and reads them after releasing it: a reallocation leaves the
// lent bytes intact in the old array, and the memory backend's WriteRun
// stores nothing before the first byte it changes. The one write that
// reaches committed bytes, an append's tail completion, changes none of
// them, so no pinned byte is written while a view of it is read. The file
// backend does not need the latch: a filevol.Volume is safe for
// concurrent use, guarding its bookkeeping and page-run pread/pwrite with
// its own mutex and dropping that mutex for a barrier's device flush, so
// a pinned read never waits out a committer's fdatasync.
//
// Sync is deliberately passed through unlatched. volmu is the latch class
// of lobvet's locksafe lattice, last in the engine lock order, and must
// never be held across a durability barrier (locksafe flags a Sync or
// Barrier reached under it); the memory backend's Sync is a no-op and the
// file backend never sits under this decorator.
type LatchedVolume struct {
	volmu sync.Mutex
	inner disk.Volume
}

// NewLatchedVolume wraps v with a data-operation latch.
func NewLatchedVolume(v disk.Volume) *LatchedVolume {
	return &LatchedVolume{inner: v}
}

func (v *LatchedVolume) PageSize() int { return v.inner.PageSize() }

func (v *LatchedVolume) AddArea(npages int) (disk.AreaID, error) {
	v.volmu.Lock()
	id, err := v.inner.AddArea(npages)
	v.volmu.Unlock()
	return id, err
}

func (v *LatchedVolume) AreaPages(id disk.AreaID) (int, error) {
	v.volmu.Lock()
	n, err := v.inner.AreaPages(id)
	v.volmu.Unlock()
	return n, err
}

func (v *LatchedVolume) ReadRun(addr disk.Addr, npages int, dst []byte) error {
	v.volmu.Lock()
	err := v.inner.ReadRun(addr, npages, dst)
	v.volmu.Unlock()
	return err
}

func (v *LatchedVolume) View(addr disk.Addr, off, n int64, dst [][]byte) ([][]byte, error) {
	v.volmu.Lock()
	dst, err := v.inner.View(addr, off, n, dst)
	v.volmu.Unlock()
	return dst, err
}

func (v *LatchedVolume) WriteRun(addr disk.Addr, npages int, src []byte) error {
	v.volmu.Lock()
	err := v.inner.WriteRun(addr, npages, src)
	v.volmu.Unlock()
	return err
}

func (v *LatchedVolume) Sync() error { return v.inner.Sync() }

func (v *LatchedVolume) Close() error {
	v.volmu.Lock()
	err := v.inner.Close()
	v.volmu.Unlock()
	return err
}
