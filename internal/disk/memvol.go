package disk

import (
	"bytes"
	"fmt"
)

// MemVolume is the default Volume: each area is a flat in-memory byte
// array grown lazily up to its fixed page capacity. It is the simulation
// backend — all durability is imaginary, Sync and Close are no-ops.
type MemVolume struct {
	pageSize int
	areas    []*memArea
}

type memArea struct {
	npages int
	data   []byte // grows lazily up to npages*pageSize
}

// NewMemVolume creates an empty in-memory volume with the given page size.
func NewMemVolume(pageSize int) *MemVolume {
	return &MemVolume{pageSize: pageSize}
}

// PageSize returns the page size in bytes.
func (v *MemVolume) PageSize() int { return v.pageSize }

// AddArea creates a new area of npages pages.
func (v *MemVolume) AddArea(npages int) (AreaID, error) {
	if npages <= 0 {
		return 0, fmt.Errorf("disk: area size %d must be positive", npages)
	}
	if len(v.areas) >= 255 {
		return 0, fmt.Errorf("disk: too many areas")
	}
	v.areas = append(v.areas, &memArea{npages: npages})
	return AreaID(len(v.areas) - 1), nil
}

// AreaPages returns the capacity of area id in pages.
func (v *MemVolume) AreaPages(id AreaID) (int, error) {
	a, err := v.area(id)
	if err != nil {
		return 0, err
	}
	return a.npages, nil
}

func (v *MemVolume) area(id AreaID) (*memArea, error) {
	if int(id) >= len(v.areas) {
		return nil, fmt.Errorf("disk: unknown area %d", id)
	}
	return v.areas[id], nil
}

// ensure grows the backing store to cover n bytes. Capacity doubles so a
// sequentially growing area costs amortized O(1) allocations per write
// rather than one temporary slice per growth step. Spare capacity is only
// ever created zeroed (make) and the store never shrinks, so extending the
// length exposes zero bytes without re-clearing.
func (a *memArea) ensure(n int) {
	if n <= len(a.data) {
		return
	}
	if n <= cap(a.data) {
		a.data = a.data[:n]
		return
	}
	newCap := 2 * cap(a.data)
	if newCap < n {
		newCap = n
	}
	grown := make([]byte, n, newCap)
	copy(grown, a.data)
	a.data = grown
}

// ReadRun copies the materialized prefix of the range and zeroes only the
// tail — clearing bytes that are about to be overwritten is pure waste on
// the hottest path.
func (v *MemVolume) ReadRun(addr Addr, npages int, dst []byte) error {
	a, err := v.area(addr.Area)
	if err != nil {
		return err
	}
	n := npages * v.pageSize
	m := 0
	off := int(addr.Page) * v.pageSize
	if off < len(a.data) {
		m = copy(dst[:n], a.data[off:min(off+n, len(a.data))])
	}
	clear(dst[m:n])
	return nil
}

// View lends the materialized part of the byte range straight from the
// area's array and the rest from the shared zero block. A later growth
// reallocates the array, but the bytes a view covers stay correct in the
// old one: growth copies them, and nothing writes the old array again.
func (v *MemVolume) View(addr Addr, off, n int64, dst [][]byte) ([][]byte, error) {
	a, err := v.area(addr.Area)
	if err != nil {
		return dst, err
	}
	start := int64(addr.Page)*int64(v.pageSize) + off
	end := start + n
	if off < 0 || n < 0 || end > int64(a.npages)*int64(v.pageSize) {
		return dst, fmt.Errorf("disk: bytes [%v+%d,+%d) outside area %d", addr, off, n, addr.Area)
	}
	if have := int64(len(a.data)); start < have {
		m := min(end, have)
		dst = append(dst, a.data[start:m:m])
		start = m
	}
	return AppendZeros(dst, end-start), nil
}

// WriteRun stores the run, growing the area's backing array as needed.
func (v *MemVolume) WriteRun(addr Addr, npages int, src []byte) error {
	a, err := v.area(addr.Area)
	if err != nil {
		return err
	}
	n := npages * v.pageSize
	off := int(addr.Page) * v.pageSize
	a.ensure(off + n)
	dst := a.data[off : off+n]
	// Store from the first byte that differs. An append's tail completion
	// rewrites committed bytes with identical values, and those bytes may
	// be lent to a reader's view outside any latch: skipping them leaves
	// that rewrite no write to race with.
	k := commonPrefix(dst, src[:n])
	copy(dst[k:], src[k:n])
	return nil
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+64 <= n && bytes.Equal(a[i:i+64], b[i:i+64]); i += 64 {
	}
	for ; i < n && a[i] == b[i]; i++ {
	}
	return i
}

// Grow materializes the first npages pages of area id up front.
func (v *MemVolume) Grow(id AreaID, npages int) error {
	a, err := v.area(id)
	if err != nil {
		return err
	}
	if npages > a.npages {
		npages = a.npages
	}
	a.ensure(npages * v.pageSize)
	return nil
}

// Sync is a no-op: the in-memory volume has no durability.
func (v *MemVolume) Sync() error { return nil }

// Close is a no-op.
func (v *MemVolume) Close() error { return nil }
