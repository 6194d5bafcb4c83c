// Pinned reads piggyback on the §3.3 shadow protocol.
//
// Every read — Handle.Read, a server's streamed read, a Snapshot — is
// resolve, pin, view. Under the object lock and the store mutex the
// object's index yields the leaf extents covering the requested range, and
// an epoch pin is taken at the same instant. Both locks are then released
// and the volume lends read-only views of the pinned bytes, which the
// caller copies out (Read) or hands to a socket (the server) before it
// releases the pin. Three facts make reading the views outside the locks
// safe:
//
//  1. The object lock orders the resolve after every mutation of the
//     object that started before it, so the index in the pool is a
//     committed one.
//  2. Leaf bytes never pass through the pool dirty: every leaf write goes
//     to the volume directly (store.WritePages), and it goes to freshly
//     allocated pages, except the tail completion of an append, which
//     rewrites committed bytes identically (the memory backend does not
//     store them again at all). A concurrent write therefore never
//     changes a byte a pin covers. (ESM's NoShadow ablation breaks
//     this, so a Concurrent database refuses it.)
//  3. The pages a later mutation frees are retired under the current
//     epoch, and the epoch manager defers their reuse until the last pin
//     at or before that epoch is released.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/store"
)

// Object is what the engine serves: a large object that can also name the
// leaf extents holding a byte range, reading only its index.
type Object interface {
	core.Object
	Extents(dst []store.Extent, off, n int64) ([]store.Extent, error)
}

// Pin is the committed image of one byte range of an object: the leaf
// extents that held it when it was resolved, kept from reuse until
// Release. Reading it takes no engine lock, so a long streamed read sees
// one version however many writers commit meanwhile.
type Pin struct {
	e      *Engine
	off, n int64
	ext    []store.Extent
	epoch  uint64
	// views is Read's view list. It starts in inline, so a fresh pin reads
	// a few extents without another allocation.
	views  [][]byte
	inline [4][]byte
}

// pinPool recycles pins with their extent slices and view lists, so a
// warmed read allocates nothing.
var pinPool = sync.Pool{New: func() any {
	p := new(Pin)
	p.views = p.inline[:0]
	return p
}}

// pin resolves [off, off+n) of obj, the object rooted at root, and pins it.
func (e *Engine) pin(root disk.Addr, obj Object, off, n int64) (*Pin, error) {
	p := pinPool.Get().(*Pin)
	err := e.Do(root, func() error {
		sp := e.st.Obs.Begin(obs.OpRead)
		ext, err := obj.Extents(p.ext[:0], off, n)
		e.st.Obs.End(sp, err)
		p.ext = ext
		if err == nil {
			e.pinLocked(p)
		}
		return err
	})
	if err != nil {
		pinPool.Put(p)
		return nil, err
	}
	p.off, p.n = off, n
	return p, nil
}

// pinLocked takes p's epoch pin and counts it as a read in flight, which
// Close waits for. Callers hold storemu and have checked the engine open.
func (e *Engine) pinLocked(p *Pin) {
	p.e = e
	p.epoch = e.epochs.pin()
	e.copies.Add(1)
}

// Views appends to dst read-only views of the pinned bytes at
// [off, off+n), which must lie inside the pinned range — one volume view
// per extent it touches — and returns the extended slice. The views lend
// the volume's own bytes: they must not be written, and they stay valid
// until the pin is released.
func (p *Pin) Views(off, n int64, dst [][]byte) ([][]byte, error) {
	end := off + n
	if off < p.off || n < 0 || end > p.off+p.n {
		return dst, fmt.Errorf("engine: read [%d,+%d) outside the pinned [%d,+%d): %w", off, n, p.off, p.n, core.ErrOutOfRange)
	}
	e, ps := p.e, int64(p.e.st.PageSize())
	i := sort.Search(len(p.ext), func(i int) bool { return p.ext[i].Pos+p.ext[i].Len > off })
	for pos := off; pos < end; i++ {
		x := p.ext[i]
		at := x.Off + pos - x.Pos
		take := min(x.Pos+x.Len-pos, end-pos)
		var err error
		if dst, err = e.vol.View(x.Addr, at, take, dst); err != nil {
			return dst, fmt.Errorf("engine: read %v+%d: %w", x.Addr, at, err)
		}
		e.readCalls.Add(1)
		e.pagesRead.Add((at+take-1)/ps - at/ps + 1)
		pos += take
	}
	return dst, nil
}

// Read fills dst with the pinned bytes at [off, off+len(dst)), which must
// lie inside the pinned range: Views, then a copy of each view. It reuses
// the pin's view list, so only one goroutine may read a pin this way at a
// time; each read of a Snapshot's shared pin brings its own list.
func (p *Pin) Read(off int64, dst []byte) error {
	var err error
	p.views, err = p.readInto(off, dst, p.views)
	return err
}

// readInto is Read with the view list list, which it returns emptied for
// reuse.
func (p *Pin) readInto(off int64, dst []byte, list [][]byte) ([][]byte, error) {
	views, err := p.Views(off, int64(len(dst)), list[:0])
	for _, v := range views {
		dst = dst[copy(dst, v):]
	}
	clear(views) // keep no reference to volume storage
	return views[:0], err
}

// Release drops the pin, which must not be used afterwards. If a batch of
// retired pages was waiting only for this pin, it is reclaimed here.
func (p *Pin) Release() error {
	e := p.e
	var err error
	if e.epochs.unpin(p.epoch) {
		e.storemu.Lock()
		err = e.reclaimLocked()
		e.storemu.Unlock()
	}
	e.copies.Done()
	p.e = nil
	pinPool.Put(p)
	return err
}

// Snapshot is a read-only view of one object frozen at a commit point: a
// pin of its whole image plus the size and utilization it had then. Reads
// take no engine lock; they proceed while writers mutate the live object.
// A Snapshot is safe for concurrent use.
type Snapshot struct {
	root disk.Addr
	util core.Utilization
	// mu orders reads before Close: a read holds it shared while it copies
	// from its views, so Close never releases the pin under one.
	mu     sync.RWMutex
	pin    *Pin
	closed bool
}

// OpenSnapshot pins the whole committed image of the object rooted at
// root. open produces the object under the object lock and the store
// mutex, so it reads the committed index.
func (e *Engine) OpenSnapshot(root disk.Addr, open func() (Object, error)) (*Snapshot, error) {
	sn := &Snapshot{root: root, pin: new(Pin)}
	err := e.Do(root, func() error {
		obj, err := open()
		if err != nil {
			return fmt.Errorf("engine: open snapshot of object %v: %w", root, err)
		}
		sn.util = obj.Utilization()
		if sn.pin.ext, err = obj.Extents(nil, 0, obj.Size()); err != nil {
			return err
		}
		e.pinLocked(sn.pin)
		e.snapOpen++
		return nil
	})
	if err != nil {
		return nil, err
	}
	sn.pin.n = sn.util.ObjectBytes
	e.addMetric("engine.snapshot.opens", 1)
	return sn, nil
}

// Root returns the address of the object's root/descriptor page.
func (sn *Snapshot) Root() disk.Addr { return sn.root }

// view runs f unless the snapshot is closed.
func (sn *Snapshot) view(f func() error) error {
	sn.mu.RLock()
	defer sn.mu.RUnlock()
	if sn.closed {
		return fmt.Errorf("engine: snapshot of object %v is closed", sn.root)
	}
	return f()
}

// Size returns the frozen object size in bytes.
func (sn *Snapshot) Size() (int64, error) {
	return sn.util.ObjectBytes, sn.view(func() error { return nil })
}

// Read fills dst with the bytes at [off, off+len(dst)) of the frozen
// image.
func (sn *Snapshot) Read(off int64, dst []byte) error {
	return sn.view(func() error {
		if err := core.CheckRange(sn.pin.n, off, int64(len(dst))); err != nil {
			return err
		}
		_, err := sn.pin.readInto(off, dst, nil)
		return err
	})
}

// Utilization reports the frozen image's space usage.
func (sn *Snapshot) Utilization() (core.Utilization, error) {
	return sn.util, sn.view(func() error { return nil })
}

// Close releases the snapshot's pin; frees it was holding back are
// reclaimed at once. Close is idempotent.
func (sn *Snapshot) Close() error {
	sn.mu.Lock()
	closed := sn.closed
	sn.closed = true
	sn.mu.Unlock()
	if closed {
		return nil
	}
	e := sn.pin.e
	e.storemu.Lock()
	e.snapOpen--
	e.storemu.Unlock()
	e.addMetric("engine.snapshot.closes", 1)
	return sn.pin.Release()
}
