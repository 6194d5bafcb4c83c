// Per-object FIFO locks.
//
// The lock manager sits at the top of the engine's lock order:
//
//	object (objmu / per-object lock) → store (storemu) → epoch (epochmu)
//	→ latch (stripe latch) → pool → volume
//
// An object lock is always acquired before the store mutex and released
// after it; no code path acquires a second object lock while holding one,
// so the per-object locks cannot deadlock against each other.
//
// The lock has one mode. A shared mode would buy nothing: every operation
// runs under storemu, which only a durability barrier releases mid-
// operation, and reads never reach a barrier — so two reads of one object
// never overlap anyway, and sharing would only change where they queue.
package engine

import (
	"sync"

	"lobstore/internal/disk"
)

// objLock is a mutex for one object whose hand-off is strictly FIFO:
// unlike sync.Mutex, a releaser passes the lock to the longest waiter, so
// no operation on a hot object starves.
type objLock struct {
	mu    sync.Mutex
	held  bool
	queue []chan struct{}
}

// acquire blocks until the lock is handed to the caller.
func (l *objLock) acquire() {
	l.mu.Lock()
	if !l.held {
		l.held = true
		l.mu.Unlock()
		return
	}
	ready := make(chan struct{})
	l.queue = append(l.queue, ready)
	l.mu.Unlock()
	<-ready
}

// release hands the lock to the first waiter, or frees it if none waits.
func (l *objLock) release() {
	l.mu.Lock()
	if len(l.queue) == 0 {
		l.held = false
	} else {
		close(l.queue[0])
		l.queue = l.queue[1:]
	}
	l.mu.Unlock()
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

// LockCycle runs n uncontended acquire/release cycles on one object lock —
// the fixed per-request overhead every serving operation pays before
// touching the store. Exported for the lobbench micro harness, which pins
// its cost (and zero-allocation behaviour) in the tracked bench artifact.
func LockCycle(n int) {
	var t lockTable
	l := t.get(disk.Addr{Area: 1, Page: 42})
	for i := 0; i < n; i++ {
		l.acquire()
		l.release()
	}
}
