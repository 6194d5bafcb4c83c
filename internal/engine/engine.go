// Package engine serves many concurrent clients from one deterministic
// store. The core under internal/store remains single-threaded and
// analyzer-enforced deterministic; this package is the only layer allowed
// to use goroutine synchronization, and the determinism analyzer exempts
// it explicitly.
//
// The lock order, from highest to lowest, is:
//
//	object (objmu / per-object lock) → store (storemu) → epoch (epochmu)
//	→ latch (stripe latch) → pool → volume
//
// storemu serializes every operation against the deterministic core. It
// is released in exactly one place while logically inside an operation:
// around the device flush of a durability barrier (the sync interposer),
// which is what lets concurrent committers pile into the file backend's
// group-commit batches. Each operation carries a private store.OpState so
// operations parked at a barrier cannot corrupt each other's in-flight
// free lists.
//
// At every instant storemu is held, the volume holds the last committed
// image of every named object's root: the facade writes a root when it
// creates the object, and §3.3 writes it only at each commit point after.
// Snapshots rely on that; see OpenSnapshot.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/store"
)

// ErrClosed is wrapped by operations submitted after Close.
var ErrClosed = errors.New("engine closed")

// Snapshot readers are spread over snapshotStripes independent stripes
// (objects hash to stripes by root address), each with a private buffer
// pool of snapshotPoolFrames frames.
const (
	snapshotStripes    = 8
	snapshotPoolFrames = 16
)

// Engine is the concurrency layer above one deterministic store.
type Engine struct {
	st *store.Store
	// params is the geometry of the store being served; snapshot stripe
	// stores are opened with the same geometry over a read-only view of
	// the same volume.
	params store.Params

	// storemu serializes operations against the deterministic core.
	storemu sync.Mutex
	// quiet signals (under storemu) when inflight returns to zero.
	quiet    *sync.Cond
	inflight int
	closed   bool
	snapOpen int

	locks   lockTable
	epochs  epochs
	stripes []stripe

	// metrics is late-bound: the facade attaches a registry after open.
	metrics atomic.Pointer[obs.Metrics]
}

// New wraps st, a store opened with params. The engine installs itself
// into the store's barrier and free paths; the store must not be used
// directly afterwards except through the engine, until Close uninstalls
// the hooks.
func New(st *store.Store, params store.Params) *Engine {
	e := &Engine{
		st:      st,
		params:  params,
		stripes: make([]stripe, snapshotStripes),
	}
	e.quiet = sync.NewCond(&e.storemu)
	st.SetRetireHook(e.onRetire)
	st.Disk.SetSyncInterpose(e.syncInterpose)
	return e
}

// Store returns the wrapped deterministic store. Callers must only touch
// it through Run/Do/View.
func (e *Engine) Store() *store.Store { return e.st }

// SetMetrics attaches (or replaces) the metrics registry receiving
// engine.* counters and latencies. Safe while operations are in flight.
func (e *Engine) SetMetrics(m *obs.Metrics) { e.metrics.Store(m) }

func (e *Engine) addMetric(name string, delta int64) {
	if m := e.metrics.Load(); m != nil {
		m.Add(name, delta)
	}
}

// syncInterpose runs around the device flush of every durability barrier.
// It releases storemu for exactly the flush duration so that other
// committers reach their own barriers and the volume's group-commit
// pipeline can batch them into one fsync. The current operation's OpState
// is parked first: another operation that runs — and possibly parks —
// while this one waits must not see or mutate this one's in-flight state.
func (e *Engine) syncInterpose(sync func() error) error {
	saved := e.st.SwapOp(nil)
	e.storemu.Unlock()
	err := sync()
	e.storemu.Lock() //lobvet:ignore locksafe re-acquisition after the flush; the matching Unlock is above, paired across the device sync by design
	e.st.SwapOp(saved)
	return err
}

// onRetire runs inside EndOp, under storemu, when an operation's deferred
// frees are handed over instead of being applied inline. A copy of the
// batch is tagged with the current epoch; anything no snapshot reader can
// still observe is reclaimed immediately.
func (e *Engine) onRetire(leaf []store.Segment, meta []disk.Addr) error {
	e.epochs.retire(leaf, meta, obs.WallNow())
	e.addMetric("engine.epoch.retired", 1)
	return e.reclaimLocked()
}

// reclaimLocked applies every reclaimable batch: stale cached copies of
// the pages being returned are purged from all snapshot stripes first, so
// a reused address can never serve bytes from a dead image. Callers hold
// storemu.
func (e *Engine) reclaimLocked() error {
	for _, b := range e.epochs.ready() {
		for i := range e.stripes {
			s := &e.stripes[i]
			s.latch.Lock()
			var derr error
			for _, seg := range b.leaf {
				if err := s.dropRange(seg.Addr, int(seg.Pages)); err != nil && derr == nil {
					derr = err
				}
			}
			for _, a := range b.meta {
				if err := s.dropRange(a, 1); err != nil && derr == nil {
					derr = err
				}
			}
			s.latch.Unlock()
			if derr != nil {
				return derr
			}
		}
		if err := e.st.ApplyFrees(b.leaf, b.meta); err != nil {
			return err
		}
		e.epochs.recycle(b)
		if m := e.metrics.Load(); m != nil {
			m.ObserveEpochHold(obs.WallNow() - b.born)
		}
		e.addMetric("engine.epoch.reclaimed", 1)
	}
	return nil
}

// opPool recycles the per-operation OpState across all engines: the
// state escapes into the store via SwapOp, so a stack allocation is
// impossible and a fresh heap OpState per request would be the busiest
// allocation on the serving hot path. Ownership is strict: an OpState is
// returned to the pool only after its operation fully ended (EndOp has
// handed any pending frees out by then).
var opPool = sync.Pool{New: func() any { return new(store.OpState) }}

// Run executes f against the core under storemu with a private OpState.
// Do runs object operations through it; called directly, it is the entry
// point for operations that need no object lock (object creation, catalog
// access, checkpoints).
func (e *Engine) Run(f func() error) error {
	e.storemu.Lock()
	if e.closed {
		e.storemu.Unlock()
		return fmt.Errorf("engine: run: %w", ErrClosed)
	}
	e.inflight++
	op := opPool.Get().(*store.OpState)
	prev := e.st.SwapOp(op)
	err := f()
	e.st.SwapOp(prev)
	op.Reset()
	opPool.Put(op)
	e.inflight--
	if e.inflight == 0 {
		e.quiet.Broadcast()
	}
	e.storemu.Unlock()
	return err
}

// View executes f under storemu without an OpState swap, for reads of
// store-wide state (clock, counters) that perform no operation.
func (e *Engine) View(f func()) {
	e.storemu.Lock()
	f()
	e.storemu.Unlock()
}

// Do executes f as an operation on the object rooted at root, holding its
// lock. Lock hand-off is fair FIFO.
func (e *Engine) Do(root disk.Addr, f func() error) error {
	l := e.locks.get(root)
	start := obs.WallNow()
	l.acquire()
	if m := e.metrics.Load(); m != nil {
		m.ObserveLockWait(obs.WallNow() - start)
	}
	e.addMetric("engine.lock.acquires", 1)
	err := e.Run(f)
	l.release()
	return err
}

// OpenSnapshot freezes the current committed image of the object rooted
// at root. The frozen root page is read from the volume under storemu,
// and the epoch pin taken at the same instant holds back every free
// retired from then on.
//
// The volume is the one source of that image, so the root must have been
// written when the object was created (the facade's createManaged does
// that). From then on §3.3 writes the root only at a commit point: at any
// instant storemu is held — between operations, or while a writer is
// parked at a durability barrier — the volume's root is the last
// committed one, never the pool copy of an operation in flight or of one
// that failed.
func (e *Engine) OpenSnapshot(root disk.Addr, open Opener) (*Snapshot, error) {
	if open == nil {
		return nil, fmt.Errorf("engine: snapshot of object %v: nil opener", root)
	}
	frozen := make([]byte, e.st.PageSize())
	e.storemu.Lock()
	if e.closed {
		e.storemu.Unlock()
		return nil, fmt.Errorf("engine: snapshot of object %v: %w", root, ErrClosed)
	}
	if err := e.st.Disk.Peek(root, 1, frozen); err != nil {
		e.storemu.Unlock()
		return nil, fmt.Errorf("engine: freeze root of object %v: %w", root, err)
	}
	ep := e.epochs.pin()
	e.snapOpen++
	e.storemu.Unlock()
	e.addMetric("engine.snapshot.opens", 1)
	return &Snapshot{e: e, root: root, frozen: frozen, epoch: ep, open: open}, nil
}

func (e *Engine) stripeFor(root disk.Addr) *stripe {
	return &e.stripes[hashAddr(root, len(e.stripes))]
}

// Stats is a point-in-time view of the engine's concurrency state, for
// pin-leak and epoch-drain assertions.
type Stats struct {
	OpenSnapshots  int
	PendingBatches int
	ActivePins     int
	Inflight       int
}

// Stats returns current counts.
func (e *Engine) Stats() Stats {
	e.storemu.Lock()
	st := Stats{OpenSnapshots: e.snapOpen, Inflight: e.inflight}
	e.storemu.Unlock()
	st.PendingBatches, st.ActivePins = e.epochs.pendingCounts()
	return st
}

// PinnedStripePages sums pinned pages across all stripe pools; it must be
// zero whenever no snapshot read is mid-flight.
func (e *Engine) PinnedStripePages() int {
	total := 0
	for i := range e.stripes {
		s := &e.stripes[i]
		s.latch.Lock()
		if s.st != nil {
			total += s.st.Pool.PinnedPages()
		}
		s.latch.Unlock()
	}
	return total
}

// Close quiesces the engine: it waits for in-flight operations, requires
// every snapshot to be closed, drains the epoch queue, and uninstalls the
// store hooks so the store can be closed single-threaded afterwards.
func (e *Engine) Close() error {
	e.storemu.Lock()
	if e.closed {
		e.storemu.Unlock()
		return nil
	}
	e.closed = true
	for e.inflight > 0 {
		e.quiet.Wait()
	}
	if e.snapOpen > 0 {
		n := e.snapOpen
		e.closed = false
		e.storemu.Unlock()
		return fmt.Errorf("engine: close with %d snapshot(s) still open", n)
	}
	err := e.reclaimLocked()
	if batches, pins := e.epochs.pendingCounts(); err == nil && (batches > 0 || pins > 0) {
		err = fmt.Errorf("engine: close with %d retired batch(es) and %d pin(s) undrained", batches, pins)
	}
	e.st.SetRetireHook(nil)
	e.st.Disk.SetSyncInterpose(nil)
	e.storemu.Unlock()

	// Detach each stripe store under its latch, but close it outside:
	// store.Close runs a durability barrier, which must never happen
	// under a latch. The engine is marked closed, so no snapshot read can
	// re-bind the stripe meanwhile.
	for i := range e.stripes {
		s := &e.stripes[i]
		s.latch.Lock()
		sst := s.st
		s.st = nil
		s.latch.Unlock()
		if sst != nil {
			if cerr := sst.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// WrapObject adapts a core object to a Handle routed through the engine.
func (e *Engine) WrapObject(obj core.Object, root disk.Addr) *Handle {
	return &Handle{e: e, inner: obj, root: root}
}
