// Package core defines the interface shared by the three large object
// managers (ESM, Starburst, EOS) plus the common measurement types.
//
// A large object is an uninterpreted byte sequence supporting the piece-wise
// operations of the paper's introduction: append bytes at the end, read or
// replace a random byte range, and insert or delete bytes at arbitrary
// positions.
package core

import (
	"errors"
	"fmt"

	"lobstore/internal/disk"
)

// ErrOutOfRange is wrapped by operations whose byte range falls outside the
// object.
var ErrOutOfRange = errors.New("byte range outside object")

// Object is one large object stored under one of the three managers.
// Implementations are not safe for concurrent use: the simulation is
// single-threaded so that every I/O charge is deterministic.
type Object interface {
	// Size returns the object length in bytes.
	Size() int64
	// Append adds data at the end of the object.
	Append(data []byte) error
	// Read fills dst with the bytes at [off, off+len(dst)).
	Read(off int64, dst []byte) error
	// Replace overwrites the bytes at [off, off+len(data)) without
	// changing the object size.
	Replace(off int64, data []byte) error
	// Insert adds data before the byte at off (off == Size appends).
	Insert(off int64, data []byte) error
	// Delete removes the n bytes at [off, off+n).
	Delete(off, n int64) error
	// Utilization reports how much disk space the object occupies.
	Utilization() Utilization
	// Close finalizes the object (Starburst and EOS trim the last
	// segment). The object remains readable.
	Close() error
	// Destroy releases all disk space held by the object.
	Destroy() error
}

// Utilization compares the object size with the space allocated to store it,
// including index pages (§4.4.1).
type Utilization struct {
	// ObjectBytes is the logical object size.
	ObjectBytes int64
	// DataPages counts pages allocated to data segments.
	DataPages int64
	// IndexPages counts index/descriptor pages (tree nodes, object root).
	IndexPages int64
	// PageSize is the disk block size used to convert pages to bytes.
	PageSize int
}

// Ratio returns object bytes divided by allocated bytes, in [0,1].
func (u Utilization) Ratio() float64 {
	alloc := (u.DataPages + u.IndexPages) * int64(u.PageSize)
	if alloc == 0 {
		return 0
	}
	return float64(u.ObjectBytes) / float64(alloc)
}

func (u Utilization) String() string {
	return fmt.Sprintf("%.1f%% (%d bytes in %d data + %d index pages)",
		100*u.Ratio(), u.ObjectBytes, u.DataPages, u.IndexPages)
}

// CheckRange validates a byte range against an object size.
func CheckRange(size, off, n int64) error {
	if off < 0 || n < 0 || off > size-n { // not off+n > size: the sum can overflow
		return fmt.Errorf("range [%d,+%d) of a %d-byte object: %w", off, n, size, ErrOutOfRange)
	}
	return nil
}

// SegmentInfo describes one data segment of an object's physical layout.
type SegmentInfo struct {
	// StartPage is the first page of the segment in the leaf area.
	StartPage uint32
	// Pages is the allocated segment length.
	Pages int
	// Bytes is the number of object bytes the segment holds.
	Bytes int64
}

// Layout is a point-in-time description of how an object sits on disk.
type Layout struct {
	// Segments lists the data segments in object byte order.
	Segments []SegmentInfo
	// IndexPages counts index/descriptor pages (tree nodes, roots).
	IndexPages int
	// IndexLevels is the tree height (0 = pointers directly to data;
	// Starburst's flat descriptor reports 0).
	IndexLevels int
}

// Inspector is implemented by all three managers: Layout exposes the
// physical structure for tools, tests and teaching.
type Inspector interface {
	Layout() (Layout, error)
}

// PageMarker is implemented by everything that owns disk pages. MarkPages
// reports each owned page range; shadow recovery rebuilds allocation state
// from the union of all marks (crashed mid-operation allocations are
// unreachable and therefore reclaimed automatically).
type PageMarker interface {
	MarkPages(mark func(addr disk.Addr, pages int) error) error
}
