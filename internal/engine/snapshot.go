// Snapshot reads piggyback on the §3.3 shadow protocol.
//
// Every mutating operation writes its new pages to freshly allocated
// (shadow) locations, flushes them behind a pre-commit barrier, and only
// then overwrites the object's root/descriptor page in place — the commit
// point. The pages the post-image no longer references are freed strictly
// after a post-commit barrier. Two consequences make lock-free snapshot
// reads safe:
//
//  1. At any instant at which the store mutex is held, the on-volume
//     root page is a complete pre- or post-image: the only in-place
//     volume writes are the commit-point root write and the tail
//     completion of an append, which rewrites committed bytes
//     identically.
//  2. Every page reachable from a given committed root image is immutable
//     until that image's pages are freed — and the epoch manager defers
//     those frees until the last reader pinned at or before the image's
//     epoch drains.
//
// A snapshot therefore freezes just the root page (one Peek under the
// store mutex plus an epoch pin) and traverses everything below it
// lock-free through a private read-only store, with the frozen root
// overlaid so later in-place commits to the live root are invisible.
package engine

import (
	"fmt"
	"sync"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/store"
)

// attachView exposes the areas of an existing volume to a second,
// read-only store. AddArea calls attach to the already-created areas in
// creation order instead of making new ones; single pages can be overlaid
// with frozen images; writes and growth are rejected.
type attachView struct {
	inner    disk.Volume
	pageSize int
	next     disk.AreaID
	overlay  map[disk.Addr][]byte
}

func newAttachView(inner disk.Volume) *attachView {
	return &attachView{
		inner:    inner,
		pageSize: inner.PageSize(),
		overlay:  make(map[disk.Addr][]byte),
	}
}

func (v *attachView) PageSize() int { return v.pageSize }

func (v *attachView) AddArea(npages int) (disk.AreaID, error) {
	id := v.next
	got, err := v.inner.AreaPages(id)
	if err != nil {
		return 0, fmt.Errorf("engine: attach area %d: %w", id, err)
	}
	if got != npages {
		return 0, fmt.Errorf("engine: attach area %d: have %d pages, want %d", id, got, npages)
	}
	v.next++
	return id, nil
}

func (v *attachView) AreaPages(id disk.AreaID) (int, error) { return v.inner.AreaPages(id) }

func (v *attachView) ReadRun(addr disk.Addr, npages int, dst []byte) error {
	if err := v.inner.ReadRun(addr, npages, dst); err != nil {
		return err
	}
	if len(v.overlay) == 0 {
		return nil
	}
	for i := 0; i < npages; i++ {
		p := disk.Addr{Area: addr.Area, Page: addr.Page + disk.PageID(i)}
		if img, ok := v.overlay[p]; ok {
			copy(dst[i*v.pageSize:(i+1)*v.pageSize], img)
		}
	}
	return nil
}

func (v *attachView) WriteRun(addr disk.Addr, npages int, src []byte) error {
	return fmt.Errorf("engine: write %v through read-only snapshot view", addr)
}

func (v *attachView) Grow(id disk.AreaID, npages int) error {
	return fmt.Errorf("engine: grow area %d through read-only snapshot view", id)
}

func (v *attachView) Sync() error { return nil }

func (v *attachView) Close() error { return nil }

// stripe is one latch-striped snapshot reader: a private read-only store
// over an attachView of the main volume, plus the bookkeeping of which
// snapshot's frozen root is currently overlaid per object. Independent
// objects hash to different stripes and read concurrently; readers within
// one stripe serialize on the stripe latch only.
type stripe struct {
	latch sync.Mutex
	view  *attachView
	st    *store.Store
	// bound maps an object root to the snapshot whose frozen image is
	// currently overlaid there. Rebinding another snapshot of the same
	// root drops the stripe pool wholesale: the in-place tail completion
	// of an append may have changed bytes beyond a cached page's older
	// committed size.
	bound map[disk.Addr]*Snapshot
}

// ensure lazily builds the stripe's private store. Callers hold the
// stripe latch.
func (s *stripe) ensure(e *Engine) error {
	if s.st != nil {
		return nil
	}
	view := newAttachView(e.st.Disk.Volume())
	p := e.opts.Params
	p.Volume = view
	p.Materialize = true
	p.Pool.Frames = e.opts.SnapshotPoolFrames
	if p.Pool.MaxRun > p.Pool.Frames {
		p.Pool.MaxRun = p.Pool.Frames
	}
	st, err := store.Open(p)
	if err != nil {
		return fmt.Errorf("engine: snapshot stripe store: %w", err)
	}
	s.view, s.st = view, st
	s.bound = make(map[disk.Addr]*Snapshot)
	return nil
}

// bind makes sn the overlaid snapshot for its root within this stripe.
// Callers hold the stripe latch.
func (s *stripe) bind(sn *Snapshot) error {
	if s.bound[sn.root] == sn {
		return nil
	}
	if err := s.st.Pool.DropAll(); err != nil {
		return err
	}
	s.view.overlay[sn.root] = sn.frozen
	s.bound[sn.root] = sn
	return nil
}

// unbind forgets sn if it is currently overlaid. Callers hold the stripe
// latch.
func (s *stripe) unbind(sn *Snapshot) error {
	if s.bound[sn.root] != sn {
		return nil
	}
	delete(s.bound, sn.root)
	delete(s.view.overlay, sn.root)
	return s.st.Pool.DropRange(sn.root, 1)
}

// dropRange purges cached pages so reclaimed addresses cannot serve stale
// bytes when reused. Callers hold the stripe latch.
func (s *stripe) dropRange(addr disk.Addr, npages int) error {
	if s.st == nil {
		return nil
	}
	return s.st.Pool.DropRange(addr, npages)
}

// Opener reopens an object of a known kind against a (snapshot) store.
type Opener func(st *store.Store, root disk.Addr) (core.Object, error)

// Snapshot is a read-only view of one object frozen at a commit point.
// It is safe for concurrent use; reads serialize on the owning stripe's
// latch, not on the object lock or the store mutex, so they proceed while
// a writer mutates the live object.
type Snapshot struct {
	e      *Engine
	root   disk.Addr
	frozen []byte
	epoch  uint64
	open   Opener
	obj    core.Object
	closed bool
}

// Root returns the address of the frozen root/descriptor page.
func (sn *Snapshot) Root() disk.Addr { return sn.root }

// withObj runs f with the snapshot's object bound into its stripe.
func (sn *Snapshot) withObj(f func(core.Object) error) error {
	s := sn.e.stripeFor(sn.root)
	s.latch.Lock()
	defer s.latch.Unlock()
	if sn.closed {
		return fmt.Errorf("engine: snapshot of object %v is closed", sn.root)
	}
	if err := s.ensure(sn.e); err != nil {
		return err
	}
	if err := s.bind(sn); err != nil {
		return err
	}
	if sn.obj == nil {
		obj, err := sn.open(s.st, sn.root)
		if err != nil {
			return fmt.Errorf("engine: open snapshot of object %v: %w", sn.root, err)
		}
		sn.obj = obj
	}
	return f(sn.obj)
}

// Size returns the frozen object size in bytes.
func (sn *Snapshot) Size() (int64, error) {
	var size int64
	err := sn.withObj(func(o core.Object) error {
		size = o.Size()
		return nil
	})
	return size, err
}

// Read fills dst with the bytes at [off, off+len(dst)) of the frozen
// image.
func (sn *Snapshot) Read(off int64, dst []byte) error {
	return sn.withObj(func(o core.Object) error {
		return o.Read(off, dst)
	})
}

// Utilization reports the frozen image's space usage.
func (sn *Snapshot) Utilization() (core.Utilization, error) {
	var u core.Utilization
	err := sn.withObj(func(o core.Object) error {
		u = o.Utilization()
		return nil
	})
	return u, err
}

// Close unpins the snapshot's epoch and releases its overlay. Frees the
// snapshot was holding back become reclaimable; reclamation runs
// immediately. Close is idempotent.
func (sn *Snapshot) Close() error {
	s := sn.e.stripeFor(sn.root)
	s.latch.Lock()
	if sn.closed {
		s.latch.Unlock()
		return nil
	}
	sn.closed = true
	err := s.unbind(sn)
	s.latch.Unlock()

	e := sn.e
	e.storemu.Lock()
	e.epochs.unpin(sn.epoch)
	e.snapOpen--
	if rerr := e.reclaimLocked(); err == nil {
		err = rerr
	}
	e.storemu.Unlock()
	e.addMetric("engine.snapshot.closes", 1)
	return err
}

// hashAddr spreads object roots across stripes.
func hashAddr(a disk.Addr, n int) int {
	h := uint64(a.Area)*0x9e3779b97f4a7c15 + uint64(a.Page)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return int(h % uint64(n))
}
