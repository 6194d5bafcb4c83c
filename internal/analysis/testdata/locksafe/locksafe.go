// Testdata for the locksafe analyzer: unlock-on-all-paths, the
// conn → object → store → epoch → latch → pool → volume ordering lattice,
// and no durability work under a latch. The connection, engine-level and
// latch classes are assigned by the exact names "connmu", "objmu",
// "storemu", "epochmu" and "volmu"; the lower levels by variable name
// ("pool", "vol") as before.
package locktest

import (
	"os"
	"sync"

	"lobstore/internal/disk"
)

type engine struct {
	connmu  sync.RWMutex
	objmu   sync.Mutex
	storemu sync.Mutex
	epochmu sync.Mutex
	volmu   sync.Mutex
	poolMu  sync.Mutex
	volLock sync.RWMutex
	vol     *disk.Disk
	f       *os.File
	n       int
}

// --- clean: lock/defer-unlock, the dominant idiom ---

func (e *engine) bump() {
	e.volmu.Lock()
	defer e.volmu.Unlock()
	e.n++
}

// --- clean: explicit unlock on every path ---

func (e *engine) bumpIfSmall() bool {
	e.volmu.Lock()
	if e.n > 10 {
		e.volmu.Unlock()
		return false
	}
	e.n++
	e.volmu.Unlock()
	return true
}

// --- clean: read lock paired with read unlock ---

func (e *engine) read() int {
	e.volLock.RLock()
	defer e.volLock.RUnlock()
	return e.n
}

// --- clean: lattice order latch → pool → volume ---

func (e *engine) orderedNesting() {
	e.volmu.Lock()
	defer e.volmu.Unlock()
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	e.volLock.Lock()
	defer e.volLock.Unlock()
	e.n++
}

// --- violation: missing unlock on an early return ---

func (e *engine) leakOnEarlyReturn() bool {
	e.volmu.Lock() // want `lock "volmu" is not released on every path`
	if e.n > 10 {
		return false // leaks the latch
	}
	e.volmu.Unlock()
	return true
}

// --- violation: double unlock ---

func (e *engine) doubleUnlock() {
	e.volmu.Lock()
	e.n++
	e.volmu.Unlock()
	e.volmu.Unlock() // want `"volmu" is released twice`
}

// --- violation: lock-order inversion, pool-class acquired then latch ---

func (e *engine) inverted() {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	e.volmu.Lock() // want `lock-order inversion: latch-class lock "volmu" acquired while pool-class lock "poolMu" is held`
	defer e.volmu.Unlock()
	e.n++
}

// --- violation: volume-class held while taking the pool lock ---

func (e *engine) invertedVol() {
	e.volLock.Lock()
	defer e.volLock.Unlock()
	e.poolMu.Lock() // want `lock-order inversion: pool-class lock "poolMu" acquired while volume-class lock "volLock" is held`
	defer e.poolMu.Unlock()
	e.n++
}

// --- clean: connection layer above the engine, conn → object ---

func (e *engine) connDescent() {
	e.connmu.Lock()
	defer e.connmu.Unlock()
	e.objmu.Lock()
	defer e.objmu.Unlock()
	e.n++
}

// --- violation: conn lock taken under an engine lock ---

func (e *engine) invertedConnUnderObj() {
	e.objmu.Lock()
	defer e.objmu.Unlock()
	e.connmu.Lock() // want `lock-order inversion: conn-class lock "connmu" acquired while object-class lock "objmu" is held`
	defer e.connmu.Unlock()
	e.n++
}

// --- violation: conn read lock taken under the store mutex ---

func (e *engine) invertedConnUnderStore() {
	e.storemu.Lock()
	defer e.storemu.Unlock()
	e.connmu.RLock() // want `lock-order inversion: conn-class lock "connmu" acquired while store-class lock "storemu" is held`
	defer e.connmu.RUnlock()
	e.n++
}

// --- clean: full engine descent object → store → epoch → latch ---

func (e *engine) engineDescent() {
	e.objmu.Lock()
	defer e.objmu.Unlock()
	e.storemu.Lock()
	defer e.storemu.Unlock()
	e.epochmu.Lock()
	defer e.epochmu.Unlock()
	e.volmu.Lock()
	defer e.volmu.Unlock()
	e.n++
}

// --- violation: object lock taken under the store mutex ---

func (e *engine) invertedObjUnderStore() {
	e.storemu.Lock()
	defer e.storemu.Unlock()
	e.objmu.Lock() // want `lock-order inversion: object-class lock "objmu" acquired while store-class lock "storemu" is held`
	defer e.objmu.Unlock()
	e.n++
}

// --- violation: store mutex taken under the epoch mutex ---

func (e *engine) invertedStoreUnderEpoch() {
	e.epochmu.Lock()
	defer e.epochmu.Unlock()
	e.storemu.Lock() // want `lock-order inversion: store-class lock "storemu" acquired while epoch-class lock "epochmu" is held`
	defer e.storemu.Unlock()
	e.n++
}

// --- violation: store mutex taken under the volume latch ---

func (e *engine) invertedStoreUnderLatch() {
	e.volmu.Lock()
	defer e.volmu.Unlock()
	e.storemu.Lock() // want `lock-order inversion: store-class lock "storemu" acquired while latch-class lock "volmu" is held`
	defer e.storemu.Unlock()
	e.n++
}

// --- violation: durability barrier invoked under the latch ---

func (e *engine) barrierUnderLatch() error {
	e.volmu.Lock()
	defer e.volmu.Unlock()
	return e.vol.Barrier() // want `durability barrier reached while latch "volmu" is held`
}

// --- violation: barrier reached transitively through a helper ---

func (e *engine) flushEverything() error {
	return e.vol.Barrier()
}

func (e *engine) barrierViaHelper() error {
	e.volmu.Lock()
	defer e.volmu.Unlock()
	return e.flushEverything() // want `durability barrier reached while latch "volmu" is held`
}

// --- violation: raw file I/O under the latch ---

func (e *engine) fileWriteUnderLatch(buf []byte) error {
	e.volmu.Lock()
	defer e.volmu.Unlock()
	_, err := e.f.Write(buf) // want `durable file I/O reached while latch "volmu" is held`
	return err
}

// --- clean: barrier after the latch is released ---

func (e *engine) barrierAfterUnlock() error {
	e.volmu.Lock()
	e.n++
	e.volmu.Unlock()
	return e.vol.Barrier()
}

// --- clean: pool-class lock alone does not forbid barriers ---

func (e *engine) barrierUnderPool() error {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	return e.vol.Barrier()
}

// --- clean: unranked locks carry no lattice obligation ---

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) bump(other *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()
	b.n++
	other.n++
}

// --- violation: a volume decorator's Sync holding its latch across the
// inner volume's barrier, reached through the disk.Volume interface ---

type latchedVolume struct {
	volmu sync.Mutex
	inner disk.Volume
}

func (v *latchedVolume) Sync() error {
	v.volmu.Lock()
	defer v.volmu.Unlock()
	return v.inner.Sync() // want `durability barrier reached while latch "volmu" is held`
}

// --- clean: the decorator passes Sync through unlatched ---

func (v *latchedVolume) syncUnlatched() error { return v.inner.Sync() }

// --- clean: a name that merely contains "latch" is unranked ---

type stripes struct {
	latchMu sync.Mutex
	storemu sync.Mutex
}

func (s *stripes) nest() {
	s.latchMu.Lock()
	defer s.latchMu.Unlock()
	s.storemu.Lock()
	defer s.storemu.Unlock()
}
