// Package engine serves many concurrent clients from one deterministic
// store. The core under internal/store remains single-threaded and
// analyzer-enforced deterministic; this package is the only layer allowed
// to use goroutine synchronization, and the determinism analyzer exempts
// it explicitly.
//
// The lock order, from highest to lowest, is:
//
//	object (objmu / per-object lock) → store (storemu) → epoch (epochmu)
//	→ pool → volume
//
// storemu serializes every operation against the deterministic core. It
// is released in exactly one place while logically inside an operation:
// around the device flush of a durability barrier (the sync interposer),
// which is what lets concurrent committers pile into the file backend's
// group-commit batches. Each operation carries a private store.OpState so
// operations parked at a barrier cannot corrupt each other's in-flight
// free lists.
//
// Reads run under the two locks only to resolve and pin the extents they
// cover; the bytes are read from views of the volume after both are
// released (see snapshot.go).
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/store"
)

// ErrClosed is wrapped by operations submitted after Close.
var ErrClosed = errors.New("engine closed")

// Engine is the concurrency layer above one deterministic store.
type Engine struct {
	st *store.Store
	// vol is the store's volume, which lends pinned reads their views.
	vol disk.Volume

	// storemu serializes operations against the deterministic core.
	storemu sync.Mutex
	// quiet signals (under storemu) when inflight returns to zero.
	quiet    *sync.Cond
	inflight int
	closed   bool
	snapOpen int

	locks  lockTable
	epochs epochs

	// copies counts pins not yet released; Close waits for them. A pin is
	// only taken under storemu while the engine is open, so every Add
	// happens before Close's Wait.
	copies sync.WaitGroup
	// readCalls and pagesRead count the volume views of pinned reads,
	// which bypass the store's cost-accounting disk.
	readCalls, pagesRead atomic.Int64

	// metrics is late-bound: the facade attaches a registry after open.
	metrics atomic.Pointer[obs.Metrics]
}

// New wraps st. The engine installs itself into the store's barrier and
// free paths; the store must not be used directly afterwards except
// through the engine, until Close uninstalls the hooks.
func New(st *store.Store) *Engine {
	e := &Engine{st: st, vol: st.Disk.Volume()}
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
// batch is tagged with the current epoch; anything no pinned reader can
// still observe is reclaimed immediately.
func (e *Engine) onRetire(leaf []store.Segment, meta []disk.Addr) error {
	e.epochs.retire(leaf, meta, obs.WallNow())
	e.addMetric("engine.epoch.retired", 1)
	return e.reclaimLocked()
}

// reclaimLocked returns every reclaimable batch to the space managers.
// Callers hold storemu.
func (e *Engine) reclaimLocked() error {
	for _, b := range e.epochs.ready() {
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

// Close quiesces the engine: it waits for in-flight operations, requires
// every snapshot to be closed, waits for every pin to be released — a
// view must never outlive its volume — drains the epoch queue, and
// uninstalls the store hooks so the store (and its volume) can be closed
// single-threaded afterwards.
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
	e.storemu.Unlock()
	e.copies.Wait()
	e.storemu.Lock()
	err := e.reclaimLocked()
	if batches, pins := e.epochs.pendingCounts(); err == nil && (batches > 0 || pins > 0) {
		err = fmt.Errorf("engine: close with %d retired batch(es) and %d pin(s) undrained", batches, pins)
	}
	e.st.SetRetireHook(nil)
	e.st.Disk.SetSyncInterpose(nil)
	e.storemu.Unlock()
	return err
}

// ReadStats returns the volume views and pages of pinned reads so far;
// the store's disk counts every other read.
func (e *Engine) ReadStats() (calls, pages int64) {
	return e.readCalls.Load(), e.pagesRead.Load()
}

// WrapObject adapts an object to a Handle routed through the engine.
func (e *Engine) WrapObject(obj Object, root disk.Addr) *Handle {
	return &Handle{e: e, inner: obj, root: root}
}
