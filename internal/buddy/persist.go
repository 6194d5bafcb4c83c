package buddy

import (
	"encoding/binary"
	"fmt"

	"lobstore/internal/disk"
)

// Directory block layout. Each buddy space persists its allocation state in
// its 1-block directory: a magic header followed by a bitmap with one bit
// per data block (1 = allocated). Free chunks are reconstructed from the
// bitmap by coalescing maximal aligned free runs, so the directory is
// self-contained — exactly the property §3.1 relies on ("the entire process
// of allocating and deallocating segments is performed by examining the
// directory block only").
const (
	dirMagic      = 0x42554459 // "BUDY"
	dirHeaderSize = 16         // magic(4) version(2) order(2) pad(8)
	dirVersion    = 1
)

// encodeDirectory serializes a space's allocation bitmap into page. New
// validates that the bitmap fits the 1-block directory.
func (a *Allocator) encodeDirectory(s *space, page []byte) {
	clear(page)
	binary.LittleEndian.PutUint32(page[0:], dirMagic)
	binary.LittleEndian.PutUint16(page[4:], dirVersion)
	binary.LittleEndian.PutUint16(page[6:], uint16(a.maxOrder))
	bitmap := page[dirHeaderSize:]
	for i := 0; i < 1<<a.maxOrder; i++ {
		if s.allocated[i/64]&(1<<(uint(i)%64)) != 0 {
			bitmap[i/8] |= 1 << (uint(i) % 8)
		}
	}
}

// decodeDirectory rebuilds a space from its serialized directory block.
// The free lists are reconstructed by freeing every maximal aligned run of
// clear bits.
func (a *Allocator) decodeDirectory(base disk.PageID, page []byte) (*space, error) {
	if binary.LittleEndian.Uint32(page[0:]) != dirMagic {
		return nil, errNoDirectory
	}
	if v := binary.LittleEndian.Uint16(page[4:]); v != dirVersion {
		return nil, fmt.Errorf("buddy: directory version %d unsupported", v)
	}
	if o := binary.LittleEndian.Uint16(page[6:]); uint(o) != a.maxOrder {
		return nil, fmt.Errorf("buddy: directory order %d, allocator order %d", o, a.maxOrder)
	}
	s := &space{
		base:      base,
		free:      make([]map[uint32]struct{}, a.maxOrder+1),
		allocated: make([]uint64, (1<<a.maxOrder+63)/64),
		loaded:    true,
	}
	for o := range s.free {
		s.free[o] = make(map[uint32]struct{})
	}
	bitmap := page[dirHeaderSize:]
	// Rebuild the allocated bitmap.
	for i := 0; i < 1<<a.maxOrder; i++ {
		if bitmap[i/8]&(1<<(uint(i)%8)) != 0 {
			s.allocated[i/64] |= 1 << (uint(i) % 64)
		}
	}
	// Reinsert free runs; insertChunk coalesces buddies as it goes.
	run := -1
	for i := 0; i <= 1<<a.maxOrder; i++ {
		free := i < 1<<a.maxOrder && bitmap[i/8]&(1<<(uint(i)%8)) == 0
		switch {
		case free && run < 0:
			run = i
		case !free && run >= 0:
			a.freeRange(s, uint32(run), i-run)
			run = -1
		}
	}
	a.recomputeMaxFree(s)
	return s, nil
}

var errNoDirectory = fmt.Errorf("buddy: no directory at this location")

// Flush writes every dirty directory block back to disk (one I/O each),
// persisting the full allocation state. Once the writes are durable, the
// area can be reopened with Open.
func (a *Allocator) Flush() error {
	buf := make([]byte, a.d.PageSize())
	for _, s := range a.spaces {
		if !s.dirty {
			continue
		}
		a.encodeDirectory(s, buf)
		if err := a.d.Write(disk.Addr{Area: a.areaID, Page: s.base}, 1, buf); err != nil {
			return err
		}
		s.dirty = false
	}
	return nil
}

// Open attaches an allocator to an area whose buddy spaces were previously
// persisted with Flush. Spaces are discovered by scanning directory blocks
// until one is missing; the superdirectory starts exact because every
// directory is visited.
func Open(d *disk.Disk, area disk.AreaID, opts ...Option) (*Allocator, error) {
	a, err := New(d, area, opts...)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, d.PageSize())
	for {
		base := disk.PageID(a.nextPage)
		if a.nextPage+a.spacePages() > a.areaPages {
			break
		}
		// Peek avoids charging I/O for probing past the last space; the
		// read of a real directory is charged below.
		if err := d.Peek(disk.Addr{Area: area, Page: base}, 1, buf); err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint32(buf[0:]) != dirMagic {
			break
		}
		if err := d.Read(disk.Addr{Area: area, Page: base}, 1, buf); err != nil {
			return nil, err
		}
		a.stats.DirectoryLoads++
		s, err := a.decodeDirectory(base, buf)
		if err != nil {
			return nil, err
		}
		a.spaces = append(a.spaces, s)
		a.super = append(a.super, s.maxFree)
		a.nextPage += a.spacePages()
	}
	return a, nil
}

// Range names a run of allocated data pages by area address.
type Range struct {
	Addr  disk.Addr
	Pages int
}

// AllocatedRanges reports every maximal run of data blocks the allocator
// currently considers handed out, in address order. Directory blocks are
// allocator overhead, not client allocations, and are excluded. fsck
// compares this against the reachable set to find leaked pages.
func (a *Allocator) AllocatedRanges() []Range {
	var out []Range
	for _, s := range a.spaces {
		run := -1
		n := 1 << a.maxOrder
		for i := 0; i <= n; i++ {
			used := i < n && s.allocated[i/64]&(1<<(i%64)) != 0
			if used && run < 0 {
				run = i
			}
			if !used && run >= 0 {
				out = append(out, Range{
					Addr:  disk.Addr{Area: a.areaID, Page: s.base + 1 + disk.PageID(run)},
					Pages: i - run,
				})
				run = -1
			}
		}
	}
	return out
}

// FromReachable rebuilds an allocator's state from a set of reachable page
// ranges — the shadow-paging recovery algorithm: after a crash the on-disk
// directories may be stale, but every live page is reachable from the
// object roots, so allocation state is exactly the union of the reachable
// ranges. Overlapping or duplicate ranges are tolerated. Buddy spaces are
// created as far as the highest reachable page; free lists are rebuilt
// from the resulting bitmaps.
func FromReachable(d *disk.Disk, area disk.AreaID, ranges []Range, opts ...Option) (*Allocator, error) {
	a, err := New(d, area, opts...)
	if err != nil {
		return nil, err
	}
	for _, r := range ranges {
		if r.Addr.Area != area {
			return nil, fmt.Errorf("buddy: reachable range %v not in area %d", r.Addr, area)
		}
		if r.Pages <= 0 {
			return nil, fmt.Errorf("buddy: reachable range %v with %d pages", r.Addr, r.Pages)
		}
		s, off, err := a.locateOrCreate(r.Addr)
		if err != nil {
			return nil, err
		}
		if int(off)+r.Pages > 1<<a.maxOrder {
			return nil, fmt.Errorf("buddy: reachable range [%v,+%d) crosses a space boundary", r.Addr, r.Pages)
		}
		for i := off; i < off+uint32(r.Pages); i++ {
			s.allocated[i/64] |= 1 << (i % 64)
		}
		s.dirty = true
	}
	// Rebuild every space's free lists from its bitmap.
	for i, s := range a.spaces {
		for o := range s.free {
			s.free[o] = make(map[uint32]struct{})
		}
		run := -1
		for i := 0; i <= 1<<a.maxOrder; i++ {
			free := i < 1<<a.maxOrder && s.allocated[i/64]&(1<<(uint(i)%64)) == 0
			switch {
			case free && run < 0:
				run = i
			case !free && run >= 0:
				a.freeRange(s, uint32(run), i-run)
				run = -1
			}
		}
		a.recomputeMaxFree(s)
		a.super[i] = s.maxFree
	}
	return a, nil
}

// locateOrCreate maps an address to its space, creating intermediate
// spaces as needed.
func (a *Allocator) locateOrCreate(addr disk.Addr) (*space, uint32, error) {
	sp := a.spacePages()
	idx := int(addr.Page) / sp
	for idx >= len(a.spaces) {
		if _, err := a.newSpace(); err != nil {
			return nil, 0, err
		}
	}
	return a.locate(addr)
}
