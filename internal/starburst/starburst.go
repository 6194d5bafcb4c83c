// Package starburst implements the Starburst long field manager (§2.2,
// §3.5): extent-based allocation through the binary buddy system, where
// successive segments double in size until a maximum, after which maximal
// segments are used; the last segment is trimmed when the field is closed.
//
// The long field descriptor holds the sizes of the first and last segments
// and an array of pointers to all segments; intermediate sizes are implied
// by the doubling pattern. Reads, appends and byte-range replaces are
// efficient, but inserting or deleting bytes in the middle of the field
// requires copying every segment from the operation's start byte onward
// (including, because of shadowing, the segment containing it) into a new
// set of segments through a fixed-size staging buffer.
package starburst

import (
	"encoding/binary"
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/store"
)

// Config selects the Starburst per-object parameters.
type Config struct {
	// MaxSegmentPages caps the doubling growth pattern. Zero selects the
	// space manager's maximum segment size.
	MaxSegmentPages int
	// CopyBufferBytes is the staging buffer for reorganising updates
	// (paper: 512 KB). Its allocation cost is not modelled (§3.5).
	CopyBufferBytes int
	// KnownSize, when positive, declares the eventual field size up front:
	// maximal segments are used from the start (§2.2).
	KnownSize int64
}

// DefaultCopyBuffer is the paper's 512 KB reorganisation buffer.
const DefaultCopyBuffer = 512 << 10

type segment struct {
	seg   store.Segment
	bytes int64 // useful bytes (only the last segment may be partial)
}

// Object is one Starburst long field.
type Object struct {
	st   *store.Store
	cfg  Config
	segs []segment
	size int64
	// nextPages is the allocation size of the next segment in the growth
	// pattern.
	nextPages int
	desc      disk.Addr // the long field descriptor's anchor page
}

var _ core.Object = (*Object)(nil)

// New creates an empty long field.
func New(st *store.Store, cfg Config) (*Object, error) {
	if cfg.MaxSegmentPages == 0 {
		cfg.MaxSegmentPages = st.MaxSegmentPages()
	}
	if cfg.MaxSegmentPages < 1 || cfg.MaxSegmentPages > st.MaxSegmentPages() {
		return nil, fmt.Errorf("starburst: max segment %d pages outside [1,%d]",
			cfg.MaxSegmentPages, st.MaxSegmentPages())
	}
	if cfg.CopyBufferBytes == 0 {
		cfg.CopyBufferBytes = DefaultCopyBuffer
	}
	ps := st.PageSize()
	if cfg.CopyBufferBytes < ps || cfg.CopyBufferBytes%ps != 0 {
		return nil, fmt.Errorf("starburst: copy buffer %d must be a positive multiple of the page size", cfg.CopyBufferBytes)
	}
	if cfg.KnownSize < 0 {
		return nil, fmt.Errorf("starburst: negative known size")
	}
	sp := st.Obs.Begin(obs.OpCreate)
	o, err := create(st, cfg)
	st.Obs.End(sp, err)
	return o, err
}

func create(st *store.Store, cfg Config) (*Object, error) {
	desc, err := st.AllocMetaPage()
	if err != nil {
		return nil, err
	}
	o := &Object{st: st, cfg: cfg, desc: desc}
	return o, o.writeDescriptor()
}

// Size returns the field length in bytes.
func (o *Object) Size() int64 { return o.size }

// locate returns the index of the segment containing byte off and the
// field offset of that segment's first byte. The descriptor is assumed
// resident with its record, so no I/O is charged (§4.4.2's 37 ms 100-byte
// read implies exactly one data-page access).
func (o *Object) locate(off int64) (int, int64) {
	var start int64
	for i, s := range o.segs {
		if off < start+s.bytes {
			return i, start
		}
		start += s.bytes
	}
	return len(o.segs) - 1, start - o.segs[len(o.segs)-1].bytes
}

// Read fills dst with the bytes at [off, off+len(dst)).
func (o *Object) Read(off int64, dst []byte) error {
	sp := o.st.Obs.Begin(obs.OpRead)
	err := o.readOp(off, dst)
	o.st.Obs.End(sp, err)
	return err
}

func (o *Object) readOp(off int64, dst []byte) error {
	if err := core.CheckRange(o.size, off, int64(len(dst))); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	i, start := o.locate(off)
	pos := off
	for len(dst) > 0 {
		s := o.segs[i]
		offIn := pos - start
		take := s.bytes - offIn
		if take > int64(len(dst)) {
			take = int64(len(dst))
		}
		if err := o.st.ReadRange(s.seg, offIn, dst[:take]); err != nil {
			return err
		}
		dst = dst[take:]
		pos += take
		start += s.bytes
		i++
	}
	return nil
}

// Append adds data at the end of the field. The partial last page is
// completed in place and new pages are flushed with sequential writes; no
// reorganisation ever happens (§4.2).
func (o *Object) appendOp(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	rest := data
	// Fill the free space of the current last segment.
	if n := len(o.segs); n > 0 {
		s := &o.segs[n-1]
		if free := int64(s.seg.Pages)*int64(o.st.PageSize()) - s.bytes; free > 0 {
			take := free
			if take > int64(len(rest)) {
				take = int64(len(rest))
			}
			if err := o.st.WriteRange(s.seg, s.bytes, rest[:take]); err != nil {
				return err
			}
			s.bytes += take
			o.size += take
			rest = rest[take:]
		}
	}
	// Allocate new segments along the growth pattern.
	for len(rest) > 0 {
		pages := o.growthPages()
		if o.st.Obs.Enabled() {
			o.st.Obs.Emit(obs.Event{Kind: obs.KindExtentDouble, Aux1: int64(pages)})
		}
		seg, err := o.st.AllocSegment(pages)
		if err != nil {
			return err
		}
		take := int64(pages) * int64(o.st.PageSize())
		if take > int64(len(rest)) {
			take = int64(len(rest))
		}
		if err := o.st.WriteFresh(seg.Addr, rest[:take]); err != nil {
			return err
		}
		o.segs = append(o.segs, segment{seg: seg, bytes: take})
		o.size += take
		rest = rest[take:]
		o.advancePattern(pages)
	}
	return o.writeDescriptor()
}

// growthPages returns the next allocation size in the pattern.
func (o *Object) growthPages() int {
	if o.cfg.KnownSize > 0 {
		return o.cfg.MaxSegmentPages
	}
	if len(o.segs) == 0 || o.nextPages == 0 {
		return 1
	}
	return o.nextPages
}

func (o *Object) advancePattern(justAllocated int) {
	next := justAllocated * 2
	if next > o.cfg.MaxSegmentPages {
		next = o.cfg.MaxSegmentPages
	}
	o.nextPages = next
}

// Close trims the unused blocks at the right end of the last segment
// (§2.2: "In either case, the last segment is trimmed").
func (o *Object) closeOp() error {
	n := len(o.segs)
	if n == 0 {
		return nil
	}
	s := &o.segs[n-1]
	ps := int64(o.st.PageSize())
	keep := int((s.bytes + ps - 1) / ps)
	if keep == 0 {
		keep = 1
	}
	trimmed, err := o.st.TrimSegment(s.seg, keep)
	if err != nil {
		return err
	}
	s.seg = trimmed
	return o.writeDescriptor()
}

// Public mutations run through store.Op: a shadow epoch (§3.3/§3.5) inside
// an observability span. The old segments a reorganisation reads are freed
// only after the descriptor — the commit point — has been rewritten.

// Append adds data at the end of the field.
func (o *Object) Append(data []byte) error {
	return o.st.Op(obs.OpAppend, func() error { return o.appendOp(data) })
}

// Insert adds data before the byte at off.
func (o *Object) Insert(off int64, data []byte) error {
	return o.st.Op(obs.OpInsert, func() error { return o.insertOp(off, data) })
}

// Delete removes the n bytes at [off, off+n).
func (o *Object) Delete(off, n int64) error {
	return o.st.Op(obs.OpDelete, func() error { return o.deleteOp(off, n) })
}

// Replace overwrites the bytes at [off, off+len(data)).
func (o *Object) Replace(off int64, data []byte) error {
	return o.st.Op(obs.OpReplace, func() error { return o.replaceOp(off, data) })
}

// Close trims the unused blocks at the right end of the last segment.
func (o *Object) Close() error { return o.st.Op(obs.OpClose, o.closeOp) }

// Destroy releases every segment and the descriptor page.
func (o *Object) Destroy() error { return o.st.Op(obs.OpDestroy, o.destroyOp) }

// Utilization reports the disk footprint: after any update Starburst
// reorganises the affected segments completely, so only the last page of
// the field may have free space (§4.4.1).
func (o *Object) Utilization() core.Utilization {
	var pages int64
	for _, s := range o.segs {
		pages += int64(s.seg.Pages)
	}
	return core.Utilization{
		ObjectBytes: o.size,
		DataPages:   pages,
		IndexPages:  1, // the long field descriptor
		PageSize:    o.st.PageSize(),
	}
}

// Destroy releases every segment and the descriptor page.
func (o *Object) destroyOp() error {
	for _, s := range o.segs {
		if err := o.st.FreeSegment(s.seg); err != nil {
			return err
		}
	}
	o.segs = nil
	o.size = 0
	return o.st.FreeMetaPage(o.desc)
}

// CheckInvariants validates the descriptor/segment bookkeeping.
func (o *Object) CheckInvariants() error {
	ps := int64(o.st.PageSize())
	var total int64
	for i, s := range o.segs {
		if s.bytes <= 0 {
			return fmt.Errorf("starburst: segment %d holds %d bytes", i, s.bytes)
		}
		if s.bytes > int64(s.seg.Pages)*ps {
			return fmt.Errorf("starburst: segment %d holds %d bytes in %d pages", i, s.bytes, s.seg.Pages)
		}
		if i < len(o.segs)-1 && s.bytes != int64(s.seg.Pages)*ps {
			return fmt.Errorf("starburst: non-final segment %d is partial (%d of %d bytes)",
				i, s.bytes, int64(s.seg.Pages)*ps)
		}
		total += s.bytes
	}
	if total != o.size {
		return fmt.Errorf("starburst: segments hold %d bytes, size says %d", total, o.size)
	}
	if o.descriptorEntries() > o.descriptorCapacity() {
		return fmt.Errorf("starburst: descriptor overflow: %d segments", len(o.segs))
	}
	return nil
}

// --- descriptor serialization ---------------------------------------------

// Descriptor layout: magic(4) version(2) pad(2) size(8) nsegs(4)
// maxSegPages(4) copyBuf(4) pad(4), then (page,pages) pairs. Per-segment
// byte counts are implied: every segment except the last is full (§2.2's
// "the size of intermediate segments are implicitly given").
const descHeaderSize = 32

const (
	descMagic   = 0x53425546 // "SBUF"
	descVersion = 1
)

func (o *Object) descriptorEntries() int { return len(o.segs) }

// descriptorCapacity is the number of segment pointers the one-page
// descriptor can hold; exceeding it is the analogue of the implementation's
// 1.5 GB object limit [Lohm91].
func (o *Object) descriptorCapacity() int {
	return (o.st.PageSize() - descHeaderSize) / 8
}

// writeDescriptor serializes the long field descriptor and writes it with
// one I/O. Updating the descriptor is part of updating the record that owns
// the long field, charged like the root write of the tree-based managers.
func (o *Object) writeDescriptor() error {
	if len(o.segs) > o.descriptorCapacity() {
		return fmt.Errorf("starburst: field needs %d segments, descriptor holds %d",
			len(o.segs), o.descriptorCapacity())
	}
	buf := o.st.Scratch(o.st.PageSize())
	clear(buf)
	binary.LittleEndian.PutUint32(buf[0:], descMagic)
	binary.LittleEndian.PutUint16(buf[4:], descVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(o.size))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(o.segs)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(o.cfg.MaxSegmentPages))
	binary.LittleEndian.PutUint32(buf[24:], uint32(o.cfg.CopyBufferBytes))
	for i, s := range o.segs {
		base := descHeaderSize + i*8
		binary.LittleEndian.PutUint32(buf[base:], uint32(s.seg.Addr.Page))
		binary.LittleEndian.PutUint32(buf[base+4:], uint32(s.seg.Pages))
	}
	// The descriptor write is the operation's commit point: the segments it
	// points at must be durable first.
	if err := o.st.SyncBarrier(); err != nil {
		return err
	}
	return o.st.WritePages(o.desc, 1, buf)
}

// Root returns the address of the long field descriptor page — the durable
// handle an owner stores to reopen the field later.
func (o *Object) Root() disk.Addr { return o.desc }

// Open reattaches to a Starburst long field via its descriptor page.
// The descriptor read is charged as one page access.
func Open(st *store.Store, desc disk.Addr) (*Object, error) {
	buf := make([]byte, st.PageSize())
	h, err := st.Pool.FixPage(desc)
	if err != nil {
		return nil, err
	}
	copy(buf, h.Data)
	h.Unfix(false)
	if binary.LittleEndian.Uint32(buf[0:]) != descMagic {
		return nil, fmt.Errorf("starburst: page %v is not a long field descriptor", desc)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != descVersion {
		return nil, fmt.Errorf("starburst: descriptor version %d unsupported", v)
	}
	o := &Object{
		st: st,
		cfg: Config{
			MaxSegmentPages: int(binary.LittleEndian.Uint32(buf[20:])),
			CopyBufferBytes: int(binary.LittleEndian.Uint32(buf[24:])),
		},
		size: int64(binary.LittleEndian.Uint64(buf[8:])),
		desc: desc,
	}
	nsegs := int(binary.LittleEndian.Uint32(buf[16:]))
	if nsegs > o.descriptorCapacity() {
		return nil, fmt.Errorf("starburst: descriptor claims %d segments", nsegs)
	}
	ps := int64(st.PageSize())
	remaining := o.size
	for i := 0; i < nsegs; i++ {
		base := descHeaderSize + i*8
		page := binary.LittleEndian.Uint32(buf[base:])
		pages := int(binary.LittleEndian.Uint32(buf[base+4:]))
		// Every segment except the last is full.
		bytes := int64(pages) * ps
		if i == nsegs-1 {
			bytes = remaining
		}
		if bytes <= 0 || bytes > int64(pages)*ps {
			return nil, fmt.Errorf("starburst: inconsistent descriptor: segment %d holds %d bytes in %d pages",
				i, bytes, pages)
		}
		o.segs = append(o.segs, segment{seg: st.LeafSegment(page, pages), bytes: bytes})
		remaining -= bytes
		if i == nsegs-1 {
			o.advancePattern(pages)
		}
	}
	if remaining != 0 {
		return nil, fmt.Errorf("starburst: descriptor size %d does not match segments", o.size)
	}
	return o, nil
}

// Layout reports the field's physical structure: the extent sequence of
// the long field descriptor.
func (o *Object) Layout() (core.Layout, error) {
	l := core.Layout{IndexPages: 1} // the descriptor page
	for _, s := range o.segs {
		l.Segments = append(l.Segments, core.SegmentInfo{
			StartPage: uint32(s.seg.Addr.Page),
			Pages:     int(s.seg.Pages),
			Bytes:     s.bytes,
		})
	}
	return l, nil
}

var _ core.Inspector = (*Object)(nil)

// MarkPages reports every page the field occupies — the descriptor page
// plus each segment's allocated extent — for shadow recovery.
func (o *Object) MarkPages(mark func(addr disk.Addr, pages int) error) error {
	if err := mark(o.desc, 1); err != nil {
		return err
	}
	for _, s := range o.segs {
		if err := mark(s.seg.Addr, int(s.seg.Pages)); err != nil {
			return err
		}
	}
	return nil
}

var _ core.PageMarker = (*Object)(nil)
