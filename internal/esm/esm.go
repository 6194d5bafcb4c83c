// Package esm implements the EXODUS Storage Manager large object structure
// (§2.1, §3.4): a positional B⁺-tree whose leaves are fixed-size segments of
// a client-chosen number of disk blocks.
//
// Both internal nodes and leaf segments are kept at least half full. Byte
// inserts use the "improved" algorithm of [Care86] by default — when a leaf
// overflows, the new bytes are first redistributed with one neighbour if
// that avoids creating a new leaf — with the "basic" even-split algorithm
// available for ablation.
//
// Updates that overwrite useful bytes of a leaf shadow the whole leaf:
// a new segment of the same size is allocated, the modified content is
// written there and the old segment is freed (§3.3). Appends are performed
// in place, and only the blocks that actually contain data are ever written
// (§3.4).
package esm

import (
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/obs"
	"lobstore/internal/postree"
	"lobstore/internal/store"
)

// Algorithm selects the byte-insert strategy of §3.4.
type Algorithm int

const (
	// Improved redistributes overflowing bytes with a neighbour leaf when
	// that avoids allocating a new leaf. This is the paper's default.
	Improved Algorithm = iota
	// Basic always splits an overflowing leaf into evenly filled new
	// leaves, as in the basic algorithm of [Care86].
	Basic
)

// Config selects the ESM per-object parameters.
type Config struct {
	// LeafPages is the fixed size, in disk blocks, of every leaf segment.
	// The paper evaluates 1, 4, 16 and 64.
	LeafPages int
	// Insert selects the insert algorithm; the zero value is Improved.
	Insert Algorithm
	// WholeLeafIO makes entire leaf segments the unit of read I/O even
	// when few pages are needed, reproducing the [Care86] simulation
	// assumption that §4.5 argues against. Ablation knob.
	WholeLeafIO bool
	// NoShadow applies in-leaf updates in place instead of shadowing the
	// whole segment, isolating the recovery cost of §3.3. Ablation knob.
	NoShadow bool
}

// Object is one ESM large object. The shared tree-object shell supplies
// Size, Root, Read, Layout, Utilization and MarkPages; this package adds
// the fixed-size leaf policy and the update algorithms of §3.4.
type Object struct {
	postree.Object
	// st and tree are the shell's store and tree, for the update code.
	st      *store.Store
	tree    *postree.Tree
	cfg     Config
	leafCap int64 // leaf capacity in bytes
}

var _ core.Object = (*Object)(nil)

// New creates an empty ESM large object.
func New(st *store.Store, cfg Config) (*Object, error) {
	if cfg.LeafPages <= 0 {
		return nil, fmt.Errorf("esm: leaf size %d pages", cfg.LeafPages)
	}
	if cfg.LeafPages > st.MaxSegmentPages() {
		return nil, fmt.Errorf("esm: leaf size %d exceeds maximum segment of %d pages",
			cfg.LeafPages, st.MaxSegmentPages())
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

// attach binds a tree to the fixed-size leaf policy: every leaf
// occupies LeafPages pages however many bytes it holds.
func attach(st *store.Store, t *postree.Tree, cfg Config) *Object {
	o := &Object{st: st, tree: t, cfg: cfg, leafCap: int64(cfg.LeafPages) * int64(st.PageSize())}
	o.Object = postree.NewObject(t, postree.Leaves{
		Pages:     func(postree.Entry) int { return cfg.LeafPages },
		ReadRange: o.readRange,
		// Every leaf occupies its full fixed size regardless of how many
		// useful bytes it holds — the root cause of ESM's utilization/leaf
		// size trade-off (§4.4.1).
		DataPages: func() int64 { return int64(t.LeafCount()) * int64(cfg.LeafPages) },
	})
	return o
}

// seg reconstructs the fixed-size segment behind a leaf entry.
func (o *Object) seg(e postree.Entry) store.Segment {
	return o.st.LeafSegment(e.Ptr, o.cfg.LeafPages)
}

// readLeaf fetches all useful bytes of a leaf into a staged buffer, valid
// until the operation ends. Only the pages containing data are transferred
// (unless WholeLeafIO is set).
func (o *Object) readLeaf(e postree.Entry) ([]byte, error) {
	buf := o.st.Stage(int(e.Bytes))
	if err := o.readRange(e, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readRange reads leaf bytes [off, off+len(dst)), honouring the
// WholeLeafIO ablation (the whole fixed-size segment is transferred with
// one I/O and the requested bytes copied out).
func (o *Object) readRange(e postree.Entry, off int64, dst []byte) error {
	if !o.cfg.WholeLeafIO {
		return o.st.ReadRange(o.seg(e), off, dst)
	}
	buf := o.st.Stage(int(o.leafCap))
	if err := o.st.ReadRange(o.seg(e), 0, buf); err != nil {
		return err
	}
	copy(dst, buf[off:off+int64(len(dst))])
	return nil
}

// allocLeaf allocates a fresh fixed-size leaf and writes data into it with
// one I/O covering exactly the dirty blocks.
func (o *Object) allocLeaf(data []byte) (postree.Entry, error) {
	if int64(len(data)) > o.leafCap || len(data) == 0 {
		return postree.Entry{}, fmt.Errorf("esm: leaf payload of %d bytes (capacity %d)", len(data), o.leafCap)
	}
	seg, err := o.st.AllocSegment(o.cfg.LeafPages)
	if err != nil {
		return postree.Entry{}, err
	}
	if err := o.st.WriteFresh(seg.Addr, data); err != nil {
		return postree.Entry{}, err
	}
	return postree.Entry{Bytes: int64(len(data)), Ptr: uint32(seg.Addr.Page)}, nil
}

func (o *Object) freeLeaf(e postree.Entry) error {
	return o.st.FreeSegment(o.seg(e))
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

// Destroy releases all leaf segments and index pages.
func (o *Object) Destroy() error {
	return o.st.Op(obs.OpDestroy, func() error { return o.tree.Destroy(o.freeLeaf) })
}

// Close flushes any pending index updates. ESM has nothing to trim and
// every operation has already flushed, so Close is a span without a shadow
// epoch: there is nothing to free, and an epoch would add a durability
// barrier.
func (o *Object) Close() error {
	sp := o.st.Obs.Begin(obs.OpClose)
	err := o.tree.FlushOp()
	o.st.Obs.End(sp, err)
	return err
}

// CheckInvariants validates the tree and leaf accounting plus the ESM
// leaf occupancy rule: every leaf holds at least half its capacity, except
// a sole leaf, which may be smaller.
func (o *Object) CheckInvariants() error {
	sole := o.tree.LeafCount() <= 1
	return o.CheckTree(func(i int, s core.SegmentInfo) error {
		if !sole && 2*s.Bytes < o.leafCap {
			return fmt.Errorf("esm: leaf %d under half full: %d of %d", i, s.Bytes, o.leafCap)
		}
		return nil
	})
}

var _ core.Inspector = (*Object)(nil)
