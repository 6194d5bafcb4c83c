package filevol

import "os"

// This file is the volume's commit pipeline: every Sync is join → seal →
// flush → ack.
//
// Under policy "commit" every §3.3 barrier is one device flush, and that
// flush dwarfs the pwrite it covers (lobmark's filevol.fdatasync_p50_us
// against filevol.pwrite_4k_ns). The volume mutex therefore covers bookkeeping
// and pread/pwrite only; the flush runs with it dropped, one flush at a
// time (the "turn"), and barriers combine behind the flush in flight:
//
//	join   a barrier joins the forming commit group, opening one — and
//	       becoming its leader — if there is none. The member that brings
//	       the group to its cap seals it; later arrivals open the next.
//	seal   the leader waits for the turn, closes the group to new members,
//	       snapshots and clears the dirty-area set, and drops the mutex.
//	flush  fdatasync the snapshotted files — while other callers read,
//	       write, grow and join the next group.
//	ack    the leader retakes the mutex, publishes the outcome, passes the
//	       turn on and wakes its followers.
//
// A barrier is thus only ever acknowledged by a flush sealed after it
// arrived, and every byte written before the arrival had reached the file
// by then — the §3.3 condition. A write landing mid-flush re-dirties its
// area and belongs to the next flush. The cap is max(1, MaxBatch): the
// zero-value GroupCommit makes every group a group of one, and a lone
// caller pays three uncontended lock pairs (join, seal, ack) around its
// fdatasync.
//
// Policies "always" (writes are already durable) and "never" (durability
// is declined) have no flush to share: their barriers are groups of one
// that only count themselves and check the armed power cut.
//
// Failure is fail-stop: a failed fdatasync poisons the volume
// (ErrVolumeFailed) for every member of the group and every later call;
// the dirty flags were cleared at the seal, and a retried fsync could
// succeed over pages the kernel already dropped.
//
// Crash injection composes: an armed power cut that lands on any member
// of a forming group dooms the whole group. The leader, instead of the
// shared fsync, runs the power-cut rollback — the cut falls exactly
// between the group's data writes and its shared fsync — so NO member is
// acknowledged: every one returns ErrPowerCut, and the rolled-back files
// hold precisely the state of the last acknowledged barrier.

// GroupCommit configures the barrier combiner.
type GroupCommit struct {
	// MaxBatch is the largest number of concurrent Sync calls one device
	// flush may acknowledge. Values <= 1 disable batching: every barrier
	// is a group of one and flushes for itself. Nothing waits for
	// company: a group is whoever arrived while the previous flush was in
	// flight, so batching needs real contention.
	MaxBatch int
}

// WithGroupCommit lets up to g.MaxBatch concurrent commit-policy barriers
// be acknowledged by a single flush (default: groups of one).
func WithGroupCommit(g GroupCommit) Option {
	return func(v *Volume) { v.gc = g }
}

// commitGroup is one leader/follower batch of concurrent barriers.
type commitGroup struct {
	members int
	doomed  bool          // an armed power cut landed on a member
	done    chan struct{} // closed by the leader after the shared flush
	err     error         // the shared outcome; set before done closes
}

// awaitTurn blocks until no flush is in flight. v.mu held.
func (v *Volume) awaitTurn() {
	for v.flushing {
		v.turn.Wait()
	}
}

// Sync is the durability barrier. Under SyncCommit it returns once a
// device flush sealed after this call arrived — its own, or the one its
// commit group shares — has made every file written before the call
// durable; under SyncAlways and SyncNever it flushes nothing (the former
// is already durable, the latter opts out). An armed power cut fires
// here: un-synced writes are rolled back and the volume dies.
func (v *Volume) Sync() error {
	g, leader, err := v.join()
	if err != nil {
		return err
	}
	if !leader {
		<-g.done
		return g.err
	}
	files, err := v.seal(g)
	if err == nil {
		n := 0
		if v.policy == SyncCommit {
			// The slow step: v.mu dropped, turn held.
			n, err = v.syncFiles(files)
		}
		err = v.ack(g, n, err)
	}
	g.err = err
	close(g.done)
	return err
}

// join counts one arriving barrier into the forming group, opening one if
// there is none; the opener leads it.
func (v *Volume) join() (g *commitGroup, leader bool, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.fault != nil {
		return nil, false, v.fault
	}
	v.stats.Barriers++
	g = v.cur
	if g == nil {
		g = &commitGroup{done: make(chan struct{})}
		v.cur = g
		leader = true
	}
	g.members++
	g.doomed = g.doomed || (v.failAt > 0 && v.stats.Barriers >= v.failAt)
	// Only commit-policy barriers have a flush to share.
	if v.policy != SyncCommit || g.members >= v.gc.MaxBatch {
		v.cur = nil // later barriers form the next group
	}
	return g, leader, nil
}

// seal takes the flush turn for g and snapshots what its flush must
// cover. On error the turn was not taken: the volume is faulted — by an
// earlier flush, or by g's own power cut, fired here under the mutex
// because no flush is in flight to race the rollback.
func (v *Volume) seal(g *commitGroup) ([]*os.File, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.awaitTurn()
	if v.cur == g {
		v.cur = nil
	}
	if v.fault != nil {
		return nil, v.fault
	}
	if g.doomed {
		return nil, v.powerCut()
	}
	v.flushing = true
	if v.policy != SyncCommit {
		return nil, nil
	}
	return v.sealDirty(), nil
}

// ack publishes g's flush outcome and passes the turn on.
func (v *Volume) ack(g *commitGroup, fsyncs int, err error) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.flushing = false
	v.turn.Broadcast()
	if err = v.flushDone(err); err != nil || v.policy != SyncCommit {
		return err
	}
	v.stats.Batches++
	v.stats.Fsyncs += int64(fsyncs)
	v.stats.MaxBatch = max(v.stats.MaxBatch, int64(g.members))
	return nil
}
