package engine

import (
	"sync"

	"lobstore/internal/disk"
	"lobstore/internal/store"
)

// retireBatch is one operation's deferred frees: the segments and meta
// pages its shadow commit replaced, tagged with the epoch at which the
// operation retired them.
type retireBatch struct {
	epoch uint64
	leaf  []store.Segment
	meta  []disk.Addr
	// born is the obs.WallNow() timestamp at retirement, for the
	// engine.epochhold latency histogram.
	born int64
}

// epochs implements epoch-based reclamation for snapshot readers. Writers
// retire freed pages under the current epoch and advance it; snapshot
// readers pin the epoch current at open. A batch becomes reclaimable once
// no pinned reader could have observed the pre-image it belongs to, i.e.
// once every active pin is newer than the batch's epoch.
//
// epochmu ranks below storemu in the engine lock order and is never held
// across any other lock acquisition or I/O.
type epochs struct {
	epochmu sync.Mutex
	current uint64
	active  map[uint64]int // pin count per epoch
	batches []retireBatch  // ascending epoch order
	spare   []retireBatch  // emptied slices of reclaimed batches, for reuse
}

// pin registers a snapshot reader against the current epoch and returns
// the epoch to unpin later.
func (e *epochs) pin() uint64 {
	e.epochmu.Lock()
	if e.active == nil {
		e.active = make(map[uint64]int)
	}
	ep := e.current
	e.active[ep]++
	e.epochmu.Unlock()
	return ep
}

// unpin drops a reader's pin.
func (e *epochs) unpin(ep uint64) {
	e.epochmu.Lock()
	if n := e.active[ep]; n > 1 {
		e.active[ep] = n - 1
	} else {
		delete(e.active, ep)
	}
	e.epochmu.Unlock()
}

// retire queues a copy of a batch of deferred frees under the current
// epoch and advances it, so every pin taken after this point is newer
// than the batch.
func (e *epochs) retire(leaf []store.Segment, meta []disk.Addr, now int64) {
	e.epochmu.Lock()
	b := retireBatch{epoch: e.current, born: now}
	if n := len(e.spare); n > 0 {
		b.leaf, b.meta = e.spare[n-1].leaf, e.spare[n-1].meta
		e.spare = e.spare[:n-1]
	}
	b.leaf = append(b.leaf, leaf...)
	b.meta = append(b.meta, meta...)
	e.batches = append(e.batches, b)
	e.current++
	e.epochmu.Unlock()
}

// recycle keeps a reclaimed batch's slices for a later retire.
func (e *epochs) recycle(b retireBatch) {
	e.epochmu.Lock()
	e.spare = append(e.spare, retireBatch{leaf: b.leaf[:0], meta: b.meta[:0]})
	e.epochmu.Unlock()
}

// minActive returns the oldest pinned epoch, or ^uint64(0) when no reader
// is pinned. Callers must hold epochmu.
func (e *epochs) minActive() uint64 {
	min := ^uint64(0)
	for ep := range e.active {
		if ep < min {
			min = ep
		}
	}
	return min
}

// ready pops and returns every batch no pinned reader can still observe.
func (e *epochs) ready() []retireBatch {
	e.epochmu.Lock()
	min := e.minActive()
	n := 0
	for n < len(e.batches) && e.batches[n].epoch < min {
		n++
	}
	out := e.batches[:n:n]
	e.batches = e.batches[n:]
	e.epochmu.Unlock()
	return out
}

// pending returns the number of batches still held back and the number of
// distinct pinned epochs, for drain assertions.
func (e *epochs) pendingCounts() (batches, pins int) {
	e.epochmu.Lock()
	batches = len(e.batches)
	for _, n := range e.active {
		pins += n
	}
	e.epochmu.Unlock()
	return batches, pins
}
