// Package eos implements the EOS large object mechanism (§2.3, [Bili92]):
// a positional tree — with the same internal nodes as ESM — over
// variable-size segments of physically adjacent pages.
//
// Segments contain no holes: every page is full except possibly the last.
// Appends follow the Starburst doubling growth pattern and never reshuffle
// existing bytes. Byte inserts and deletes split segments in place where
// possible — the left part of a split stays put and only its unused tail
// pages are returned to the buddy system — and the client-chosen segment
// size threshold T constrains fragmentation: after an update it cannot be
// the case that bytes are kept in two adjacent segments, one of which has
// fewer than T pages, if they could be stored in one.
package eos

import (
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/obs"
	"lobstore/internal/postree"
	"lobstore/internal/store"
)

// Config selects the EOS per-object parameters.
type Config struct {
	// Threshold is the segment size threshold T in pages (paper: 1, 4,
	// 16, 64). It is not a fixed leaf size nor a minimum: a one-and-a-
	// half-page object occupies two pages whatever T is.
	Threshold int
	// MaxSegmentPages caps segment size. Zero selects the allocator's
	// maximum.
	MaxSegmentPages int
}

// Object is one EOS large object. The shared tree-object shell supplies
// Size, Root, Read, Layout, Utilization and MarkPages; this package adds
// the variable-size segment policy and the update algorithms of §2.3.
type Object struct {
	postree.Object
	// st and tree are the shell's store and tree, for the update code.
	st   *store.Store
	tree *postree.Tree
	cfg  Config

	// rightPtr/rightAlloc track the growth-pattern over-allocation of the
	// rightmost segment; every other segment occupies exactly
	// ceil(bytes/pageSize) pages.
	rightPtr   uint32
	rightAlloc int
	nextPages  int // next allocation size in the doubling pattern

	dataPages int64 // running count of allocated data pages
}

var _ core.Object = (*Object)(nil)

// New creates an empty EOS large object.
func New(st *store.Store, cfg Config) (*Object, error) {
	if cfg.MaxSegmentPages == 0 {
		cfg.MaxSegmentPages = st.MaxSegmentPages()
	}
	if cfg.MaxSegmentPages < 1 || cfg.MaxSegmentPages > st.MaxSegmentPages() {
		return nil, fmt.Errorf("eos: max segment %d pages outside [1,%d]",
			cfg.MaxSegmentPages, st.MaxSegmentPages())
	}
	if cfg.Threshold < 1 || cfg.Threshold > cfg.MaxSegmentPages {
		return nil, fmt.Errorf("eos: threshold %d pages outside [1,%d]",
			cfg.Threshold, cfg.MaxSegmentPages)
	}
	sp := st.Obs.Begin(obs.OpCreate)
	o, err := create(st, cfg)
	st.Obs.End(sp, err)
	return o, err
}

func create(st *store.Store, cfg Config) (*Object, error) {
	t, err := postree.New(st)
	if err != nil {
		return nil, err
	}
	o := attach(st, t, cfg)
	if err := o.writeAnnotation(); err != nil {
		return nil, err
	}
	return o, nil
}

// attach binds a tree to the variable-size segment policy: a segment
// occupies ceil(bytes/pageSize) pages, except the rightmost while it
// carries growth-pattern slack. Only the last page of each segment may
// have unused space, so larger segments mean better utilization (§4.4.1).
func attach(st *store.Store, t *postree.Tree, cfg Config) *Object {
	o := &Object{st: st, tree: t, cfg: cfg}
	o.Object = postree.NewObject(t, postree.Leaves{
		Pages: o.segPages,
		ReadRange: func(e postree.Entry, off int64, dst []byte) error {
			return st.ReadRange(o.seg(e), off, dst)
		},
		DataPages: func() int64 { return o.dataPages },
	})
	return o
}

// pagesFor returns the pages needed to hold n densely packed bytes.
func (o *Object) pagesFor(n int64) int {
	ps := int64(o.st.PageSize())
	return int((n + ps - 1) / ps)
}

// segPages returns the allocated page count behind a leaf entry.
func (o *Object) segPages(e postree.Entry) int {
	if e.Ptr == o.rightPtr && o.rightAlloc > 0 {
		return o.rightAlloc
	}
	return o.pagesFor(e.Bytes)
}

// seg reconstructs the segment behind a leaf entry.
func (o *Object) seg(e postree.Entry) store.Segment {
	return o.st.LeafSegment(e.Ptr, o.segPages(e))
}

// allocSeg allocates a data segment and maintains the page counter.
func (o *Object) allocSeg(pages int) (store.Segment, error) {
	seg, err := o.st.AllocSegment(pages)
	if err != nil {
		return store.Segment{}, err
	}
	o.dataPages += int64(pages)
	return seg, nil
}

func (o *Object) freeSeg(seg store.Segment) error {
	o.dataPages -= int64(seg.Pages)
	return o.st.FreeSegment(seg)
}

// trimSeg returns a segment's unused tail pages to the buddy system.
func (o *Object) trimSeg(seg store.Segment, keep int) (store.Segment, error) {
	trimmed, err := o.st.TrimSegment(seg, keep)
	if err != nil {
		return store.Segment{}, err
	}
	o.dataPages -= int64(seg.Pages) - int64(keep)
	return trimmed, nil
}

// readEntry fetches a byte range of a leaf segment into a staged buffer,
// valid until the operation ends.
func (o *Object) readEntry(e postree.Entry, off, n int64) ([]byte, error) {
	buf := o.st.Stage(int(n))
	if err := o.st.ReadRange(o.seg(e), off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Append adds data at the end of the object: fill the free space of the
// rightmost segment in place, then allocate new segments along the doubling
// growth pattern. No existing byte ever moves (§4.2).
func (o *Object) appendOp(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	rest := data
	if o.Size() > 0 {
		e, _, path, err := o.tree.Rightmost()
		if err != nil {
			return err
		}
		free := int64(o.segPages(e))*int64(o.st.PageSize()) - e.Bytes
		if free > 0 {
			take := free
			if take > int64(len(rest)) {
				take = int64(len(rest))
			}
			if err := o.st.WriteRange(o.seg(e), e.Bytes, rest[:take]); err != nil {
				return err
			}
			if err := o.tree.UpdateLeaf(path, postree.Entry{Bytes: e.Bytes + take, Ptr: e.Ptr}); err != nil {
				return err
			}
			rest = rest[take:]
		}
	}
	for len(rest) > 0 {
		pages := o.growthPages()
		if o.st.Obs.Enabled() {
			o.st.Obs.Emit(obs.Event{Kind: obs.KindExtentDouble, Aux1: int64(pages)})
		}
		seg, err := o.allocSeg(pages)
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
		if err := o.tree.AppendLeaves([]postree.Entry{{Bytes: take, Ptr: uint32(seg.Addr.Page)}}); err != nil {
			return err
		}
		o.rightPtr = uint32(seg.Addr.Page)
		o.rightAlloc = pages
		rest = rest[take:]
		o.advancePattern(pages)
	}
	return o.tree.FlushOp()
}

func (o *Object) growthPages() int {
	if o.tree.LeafCount() == 0 || o.nextPages == 0 {
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

// normalizeRight trims the growth-pattern over-allocation of the rightmost
// segment so that every segment obeys pages == ceil(bytes/pageSize). Called
// before structural updates; costs no I/O (the buddy directory is cached).
func (o *Object) normalizeRight() error {
	// The growth pattern restarts here: it sized the over-allocation being
	// retired, and keeping it doubled across structural updates lets an
	// append/insert alternation allocate MaxSegmentPages for every appended
	// byte — each trimmed segment pins its buddy space, exhausting the area
	// ~500x faster than the object grows.
	o.nextPages = 0
	if o.rightAlloc == 0 || o.Size() == 0 {
		o.rightPtr, o.rightAlloc = 0, 0
		return nil
	}
	e, _, _, err := o.tree.Rightmost()
	if err != nil {
		return err
	}
	if e.Ptr != o.rightPtr {
		o.rightPtr, o.rightAlloc = 0, 0
		return nil
	}
	need := o.pagesFor(e.Bytes)
	if o.rightAlloc > need {
		if _, err := o.trimSeg(o.st.LeafSegment(e.Ptr, o.rightAlloc), need); err != nil {
			return err
		}
	}
	o.rightPtr, o.rightAlloc = 0, 0
	return nil
}

// Append adds data at the end of the object.
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

// Close trims the rightmost segment's unused pages.
func (o *Object) Close() error {
	return o.st.Op(obs.OpClose, func() error {
		if err := o.normalizeRight(); err != nil {
			return err
		}
		return o.tree.FlushOp()
	})
}

// Destroy releases every segment and index page.
func (o *Object) Destroy() error {
	return o.st.Op(obs.OpDestroy, func() error {
		if err := o.normalizeRight(); err != nil {
			return err
		}
		return o.tree.Destroy(func(e postree.Entry) error { return o.freeSeg(o.seg(e)) })
	})
}

// CheckInvariants validates the tree and the segment page accounting: no
// segment, the over-allocated rightmost included, holds more bytes than
// its pages, and the pages add up to the data page counter.
func (o *Object) CheckInvariants() error { return o.CheckTree(nil) }

var _ core.Inspector = (*Object)(nil)
