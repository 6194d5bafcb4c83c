package postree

import (
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/store"
)

// Object is the half of a tree-indexed large object that does not depend on
// its leaves: ESM (fixed-size leaves) and EOS (variable-size segments) embed
// it, supply their Leaves policy, and keep only their update algorithms —
// the part the paper compares.
type Object struct {
	tree   *Tree
	leaves Leaves
}

// Leaves is a manager's leaf policy: what the shared shell cannot know
// about the data segments a tree entry points at.
type Leaves struct {
	// Pages returns the allocated page count of the segment behind e.
	Pages func(e Entry) int
	// ReadRange reads the bytes [off, off+len(dst)) of the segment behind e.
	ReadRange func(e Entry, off int64, dst []byte) error
	// DataPages returns the pages allocated to data segments, without I/O.
	DataPages func() int64
}

// NewObject binds a tree to its manager's leaf policy.
func NewObject(t *Tree, leaves Leaves) Object { return Object{tree: t, leaves: leaves} }

// OpenAnnotated reattaches to the tree rooted at root and returns it with
// its root annotation, whose first byte must be the calling manager's kind.
func OpenAnnotated(st *store.Store, root disk.Addr, kind byte) (*Tree, []byte, error) {
	t, err := Open(st, root)
	if err != nil {
		return nil, nil, err
	}
	ann, err := t.Annotation()
	if err != nil {
		return nil, nil, err
	}
	if ann[0] != kind {
		return nil, nil, fmt.Errorf("postree: root %v belongs to manager %q, not %q", root, ann[0], kind)
	}
	return t, ann, nil
}

// Size returns the object length in bytes.
func (o *Object) Size() int64 { return o.tree.Size() }

// Root returns the address of the object's root page — the durable handle
// an owner (catalog, record) stores to reopen the object later.
func (o *Object) Root() disk.Addr { return o.tree.Root() }

// Read fills dst with the bytes at [off, off+len(dst)).
func (o *Object) Read(off int64, dst []byte) error {
	sp := o.tree.st.Obs.Begin(obs.OpRead)
	err := o.readOp(off, dst)
	o.tree.st.Obs.End(sp, err)
	return err
}

func (o *Object) readOp(off int64, dst []byte) error {
	if err := core.CheckRange(o.Size(), off, int64(len(dst))); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	e, start, path, err := o.tree.Find(off)
	if err != nil {
		return err
	}
	pos := off
	for len(dst) > 0 {
		offIn := pos - start
		take := e.Bytes - offIn
		if take > int64(len(dst)) {
			take = int64(len(dst))
		}
		if err := o.leaves.ReadRange(e, offIn, dst[:take]); err != nil {
			return err
		}
		dst = dst[take:]
		pos += take
		if len(dst) == 0 {
			break
		}
		start += e.Bytes
		var ok bool
		e, path, ok, err = o.tree.NextLeafInPlace(path)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("postree: ran out of leaves at offset %d", pos)
		}
	}
	return nil
}

// Utilization reports the disk footprint (§4.4.1): the policy's data
// pages plus every index page.
func (o *Object) Utilization() core.Utilization {
	return core.Utilization{
		ObjectBytes: o.Size(),
		DataPages:   o.leaves.DataPages(),
		IndexPages:  int64(o.tree.IndexPages()),
		PageSize:    o.tree.st.PageSize(),
	}
}

// Layout reports the object's physical structure: every data segment in
// byte order, as large as the policy says it is allocated, plus the index
// page count.
func (o *Object) Layout() (core.Layout, error) {
	l := core.Layout{
		IndexPages:  o.tree.IndexPages(),
		IndexLevels: o.tree.Height(),
	}
	err := o.tree.Walk(func(e Entry) bool {
		l.Segments = append(l.Segments, core.SegmentInfo{
			StartPage: e.Ptr,
			Pages:     o.leaves.Pages(e),
			Bytes:     e.Bytes,
		})
		return true
	})
	return l, err
}

// MarkPages reports every page the object occupies — each index page (root
// included), then each segment's allocated extent — for shadow recovery.
func (o *Object) MarkPages(mark func(addr disk.Addr, pages int) error) error {
	t := o.tree
	addrs := []disk.Addr{t.root}
	if t.height > 0 {
		if err := t.collectPages(t.root, t.height, &addrs); err != nil {
			return err
		}
	}
	for _, a := range addrs {
		if err := mark(a, 1); err != nil {
			return err
		}
	}
	l, err := o.Layout()
	if err != nil {
		return err
	}
	for _, s := range l.Segments {
		if err := mark(t.st.LeafSegment(s.StartPage, s.Pages).Addr, s.Pages); err != nil {
			return err
		}
	}
	return nil
}

// CheckTree validates the tree structure, that every segment's bytes fit
// in the pages allocated to it and that those pages add up to the policy's
// data page count, then applies the manager's own rule, if any, to every
// segment in object order. Testing aid.
func (o *Object) CheckTree(rule func(i int, s core.SegmentInfo) error) error {
	if err := o.tree.CheckInvariants(); err != nil {
		return err
	}
	l, err := o.Layout()
	if err != nil {
		return err
	}
	ps := int64(o.tree.st.PageSize())
	var pages int64
	for i, s := range l.Segments {
		if s.Bytes > int64(s.Pages)*ps {
			return fmt.Errorf("postree: segment %d holds %d bytes in %d pages", i, s.Bytes, s.Pages)
		}
		if rule != nil {
			if err := rule(i, s); err != nil {
				return err
			}
		}
		pages += int64(s.Pages)
	}
	if want := o.leaves.DataPages(); pages != want {
		return fmt.Errorf("postree: data page count %d, segments hold %d", want, pages)
	}
	return nil
}
