// Per-object reader/writer locks with fair FIFO queuing.
//
// The lock manager sits at the top of the engine's lock order:
//
//	object (objmu / per-object lock) → store (storemu) → epoch (epochmu)
//	→ latch (stripe latch) → pool → volume
//
// An object lock is always acquired before the store mutex and released
// after it; no code path acquires a second object lock while holding one,
// so the per-object locks cannot deadlock against each other.
package engine

import (
	"sync"

	"lobstore/internal/disk"
)

// objLock is a fair reader/writer lock for one object. Unlike
// sync.RWMutex, acquisition is strictly FIFO: a waiting writer blocks
// later readers, so neither side starves.
type objLock struct {
	mu      sync.Mutex
	writer  bool // a writer currently holds the lock
	readers int  // readers currently holding the lock
	queue   []*waiter
}

// waiter is one queued acquisition; ready is closed under objLock.mu when
// the lock is handed to it.
type waiter struct {
	write bool
	ready chan struct{}
}

// acquire blocks until the lock is granted in the requested mode.
func (l *objLock) acquire(write bool) {
	l.mu.Lock()
	if len(l.queue) == 0 && l.grantable(write) {
		l.grant(write)
		l.mu.Unlock()
		return
	}
	w := &waiter{write: write, ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()
	<-w.ready
}

// release returns the lock held in the given mode and wakes waiters.
func (l *objLock) release(write bool) {
	l.mu.Lock()
	if write {
		l.writer = false
	} else {
		l.readers--
	}
	l.promote()
	l.mu.Unlock()
}

// grantable reports whether the lock can be taken in the given mode right
// now, ignoring the queue. Callers must hold l.mu.
func (l *objLock) grantable(write bool) bool {
	if l.writer {
		return false
	}
	if write {
		return l.readers == 0
	}
	return true
}

func (l *objLock) grant(write bool) {
	if write {
		l.writer = true
	} else {
		l.readers++
	}
}

// promote hands the lock to queued waiters in FIFO order: a run of leading
// readers is granted together; a leading writer is granted alone. Callers
// must hold l.mu.
func (l *objLock) promote() {
	for len(l.queue) > 0 {
		w := l.queue[0]
		if !l.grantable(w.write) {
			return
		}
		l.queue = l.queue[1:]
		l.grant(w.write)
		close(w.ready)
		if w.write {
			return
		}
	}
}

// lockTable lazily allocates one objLock per object root. Entries are
// never deleted: the table is bounded by the number of distinct objects
// touched, and a stable *objLock identity keeps FIFO fairness intact
// across handle open/close cycles.
type lockTable struct {
	objmu sync.Mutex
	locks map[disk.Addr]*objLock
}

func (t *lockTable) get(id disk.Addr) *objLock {
	t.objmu.Lock()
	l := t.locks[id]
	if l == nil {
		if t.locks == nil {
			t.locks = make(map[disk.Addr]*objLock)
		}
		l = &objLock{}
		t.locks[id] = l
	}
	t.objmu.Unlock()
	return l
}

// LockCycle runs n uncontended shared-then-exclusive acquire/release
// cycles on one object lock — the fixed per-request overhead every
// serving operation pays before touching the store. Exported for the
// lobbench micro harness, which pins its cost (and zero-allocation
// behaviour) in the tracked bench artifact.
func LockCycle(n int) {
	var t lockTable
	l := t.get(disk.Addr{Area: 1, Page: 42})
	for i := 0; i < n; i++ {
		l.acquire(false)
		l.release(false)
		l.acquire(true)
		l.release(true)
	}
}
