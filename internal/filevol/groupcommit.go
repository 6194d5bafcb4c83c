package filevol

import (
	"fmt"
	"os"
	"sync"
	"time"

	"lobstore/internal/disk"
)

// This file is the volume's commit pipeline: the group-commit barrier
// combiner and the asynchronous write-back writer. Both are opt-in
// (WithGroupCommit / WithAsyncWriteback) and live entirely inside
// filevol — the one package the determinism analyzer exempts from the
// no-goroutines/no-sync rule — so the simulation layers above stay
// single-threaded and the paper's cost accounting is untouched.
//
// Group commit. Under policy "commit" every §3.3 barrier is one device
// flush, and BENCH_volume.json shows that flush dwarfs the pwrite it
// covers (~166 µs vs ~2 µs per 4-page run). The pipeline mutex therefore
// covers bookkeeping and pread/pwrite only; the flush runs with it
// dropped, one flush at a time (the "turn"), and barriers combine behind
// the flush in flight:
//
//	join   a barrier joins the forming commit group, opening one — and
//	       becoming its leader — if there is none. The member that brings
//	       the group to its cap seals it; later arrivals open the next.
//	seal   the leader (after holding the group open for up to MaxDelay)
//	       waits for the turn, closes the group to new members, snapshots
//	       and clears the dirty-area set, and drops the mutex.
//	flush  fence the async writer, fdatasync the snapshotted files — while
//	       other callers read, write, grow and join the next group.
//	ack    the leader retakes the mutex, publishes the outcome, passes the
//	       turn on and wakes its followers.
//
// A barrier is thus only ever acknowledged by a flush sealed after it
// arrived, and every byte written before the arrival had reached the file
// (or the writer queue the flush fences) by then — the §3.3 condition. A
// write landing mid-flush re-dirties its area and belongs to the next
// flush. The cap is max(1, MaxBatch): with batching off every group is a
// group of one and the same code runs.
//
// Async write-back. WriteRun normally pwrites on the caller's critical
// path. With the background writer enabled the call captures its
// crash-log pre-image, copies the payload onto a bounded FIFO queue and
// returns; a single writer goroutine drains the queue with pwrites. The
// hard flush-fence (pipeline.fence) drains the queue before anything
// that must observe or make durable the file's true contents: every
// barrier flush (so writes-before-commit ordering is exactly as in the
// synchronous path), every ReadRun, and the rollback of an injected
// power cut. Under policy "always" the queue is bypassed — a per-write
// fsync serializes on the write anyway, so queueing could only add
// copies.
//
// Per-policy behavior of a barrier through the pipeline:
//
//	commit  fence the writer, then one fdatasync per dirty area for the
//	        whole group — the case batching exists for;
//	always  writes are already durable; the barrier is a group of one that
//	        only fences and checks the armed power cut;
//	never   a group of one that only fences — ordering into the OS is
//	        preserved, durability is declined.
//
// Failure is fail-stop: a failed fence or fdatasync poisons the volume
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
	// is a group of one and flushes for itself.
	MaxBatch int
	// MaxDelay is how long a leader holds its group open for followers
	// before asking for the flush turn, unless the group fills first. Zero
	// adds no latency: the group is whoever arrived while the previous
	// flush was in flight — batching only under genuine contention.
	MaxDelay time.Duration
}

// WithGroupCommit enables the commit pipeline with group commit: N
// concurrent commit-policy barriers are acknowledged by a single flush.
// The volume becomes safe for concurrent use.
func WithGroupCommit(g GroupCommit) Option {
	return func(v *Volume) { v.pipeline().gc = g }
}

// WithAsyncWriteback enables the commit pipeline with the background
// write-back writer: WriteRun queues the pwrite instead of performing
// it, and every barrier (or read) fences the queue first. The volume
// becomes safe for concurrent use.
func WithAsyncWriteback() Option {
	return func(v *Volume) { v.pipeline().wantWriter = true }
}

// pipeline returns the volume's commit pipeline, enabling it on first use.
func (v *Volume) pipeline() *pipeline {
	if v.pipe == nil {
		v.pipe = &pipeline{}
		v.pipe.turn.L = &v.pipe.mu
	}
	return v.pipe
}

// pipeline is the per-volume commit-pipeline state. Its mutex guards ALL
// volume state (areas, dirty flags, sizes, crash log, barrier counters)
// whenever the pipeline is enabled; without a pipeline the volume stays
// lock-free and byte-for-byte on its original single-threaded paths.
type pipeline struct {
	mu         sync.Mutex
	gc         GroupCommit
	wantWriter bool
	aw         *asyncWriter
	cur        *commitGroup // forming group; nil when none
	flushing   bool         // a flush is in flight with mu dropped
	turn       sync.Cond    // on mu; broadcast when flushing falls
	stats      disk.SyncStats
}

// commitGroup is one leader/follower batch of concurrent barriers.
type commitGroup struct {
	members int
	doomed  bool          // an armed power cut landed on a member
	full    chan struct{} // closed when members reaches the cap
	done    chan struct{} // closed by the leader after the shared flush
	err     error         // the shared outcome; set before done closes
}

// start launches the background writer if one was requested. Called once
// from Open, before the volume is shared.
func (p *pipeline) start() {
	if p.wantWriter {
		p.aw = newAsyncWriter()
	}
}

// fence is the hard flush-fence: it blocks until every queued write has
// been handed to the OS. With no writer — or no pipeline — it is free.
func (p *pipeline) fence() error {
	if p == nil || p.aw == nil {
		return nil
	}
	return p.aw.drain()
}

// awaitTurn blocks until no flush is in flight. p.mu held.
func (p *pipeline) awaitTurn() {
	for p.flushing {
		p.turn.Wait()
	}
}

// barrier is Volume.Sync through the pipeline. p.mu must NOT be held.
func (p *pipeline) barrier(v *Volume) error {
	g, leader, err := p.join(v)
	if err != nil {
		return err
	}
	if !leader {
		<-g.done
		return g.err
	}
	if p.gc.MaxDelay > 0 {
		g.awaitFull(p.gc.MaxDelay)
	}
	files, err := p.seal(v, g)
	if err == nil {
		var n int
		n, err = p.flush(v, files)
		err = p.ack(v, g, n, err)
	}
	g.err = err
	close(g.done)
	return err
}

// awaitFull holds the group open for followers: until it fills or d has
// passed. A group born full (a cap of one) costs no timer.
func (g *commitGroup) awaitFull(d time.Duration) {
	select {
	case <-g.full:
		return
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-g.full:
	case <-t.C:
	}
}

// join counts one arriving barrier into the forming group, opening one if
// there is none; the opener leads it.
func (p *pipeline) join(v *Volume) (g *commitGroup, leader bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.fault != nil {
		return nil, false, v.fault
	}
	v.barriers++
	p.stats.Barriers++
	g = p.cur
	if g == nil {
		g = &commitGroup{full: make(chan struct{}), done: make(chan struct{})}
		p.cur = g
		leader = true
	}
	g.members++
	g.doomed = g.doomed || (v.failAt > 0 && v.barriers >= v.failAt)
	// Only commit-policy barriers have a flush to share.
	if v.policy != SyncCommit || g.members >= p.gc.MaxBatch {
		p.cur = nil // later barriers form the next group
		close(g.full)
	}
	return g, leader, nil
}

// seal takes the flush turn for g and snapshots what its flush must
// cover. On error the turn was not taken: the volume is faulted — by an
// earlier flush, or by g's own power cut, fired here under the mutex
// because no flush is in flight to race the rollback.
func (p *pipeline) seal(v *Volume, g *commitGroup) ([]*os.File, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.awaitTurn()
	if p.cur == g {
		p.cur = nil
	}
	if v.fault != nil {
		return nil, v.fault
	}
	if v.log != nil {
		// The crash log captures pre-images from the file, so each of its
		// generations must begin with an empty queue — and a rollback (a
		// cut needs the log) must follow every queued write.
		if err := p.fence(); err != nil {
			return nil, v.fail(err)
		}
	}
	if g.doomed {
		return nil, v.powerCut()
	}
	p.flushing = true
	if v.policy != SyncCommit {
		return nil, nil
	}
	return v.sealDirty(), nil
}

// flush is the slow step, run with p.mu dropped while holding the turn.
func (p *pipeline) flush(v *Volume, files []*os.File) (int, error) {
	if err := p.fence(); err != nil {
		return 0, err
	}
	if v.policy != SyncCommit {
		return 0, nil
	}
	return v.syncFiles(files)
}

// ack publishes g's flush outcome and passes the turn on.
func (p *pipeline) ack(v *Volume, g *commitGroup, fsyncs int, err error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushing = false
	p.turn.Broadcast()
	if err = v.flushDone(err); err != nil || v.policy != SyncCommit {
		return err
	}
	p.stats.Batches++
	p.stats.Fsyncs += int64(fsyncs)
	p.stats.MaxBatch = max(p.stats.MaxBatch, int64(g.members))
	return nil
}

// stop shuts the background writer down after draining it. p.mu held.
func (p *pipeline) stop() {
	if p.aw != nil {
		p.aw.stop()
		p.aw = nil
	}
}

// asyncWriter is the background write-back writer: a bounded FIFO of
// pending pwrites drained by one goroutine. The first write error is
// sticky — it fails the fence (and with it the barrier or read that
// fenced), every later enqueue, and stays until the volume is closed,
// exactly like an in-line pwrite failure would poison the operation.
type asyncWriter struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []pendingWrite
	queued   int // payload bytes on the queue, for backpressure
	inflight bool
	err      error
	closed   bool
	exited   chan struct{}
}

type pendingWrite struct {
	f    *os.File
	off  int64
	data []byte
}

// maxQueuedBytes bounds the queue's payload: an enqueue over the cap
// blocks until the writer catches up, so a burst of writes cannot grow
// the heap without bound.
const maxQueuedBytes = 4 << 20

func newAsyncWriter() *asyncWriter {
	w := &asyncWriter{exited: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

// run drains the queue until stop. Writes keep draining after an error —
// the queue must empty for stop to return — but only the first error is
// kept. The pwrite itself runs outside the lock (inflight keeps drain
// honest), so enqueues never serialize on the device.
func (w *asyncWriter) run() {
	defer close(w.exited)
	for {
		pw, ok := w.next()
		if !ok {
			return
		}
		_, err := pw.f.WriteAt(pw.data, pw.off)
		w.complete(pw, err)
	}
}

// next blocks until work or shutdown, pops the front write and marks it
// in flight. ok is false when the writer should exit: closed and drained.
func (w *asyncWriter) next() (pw pendingWrite, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.queue) == 0 && !w.closed {
		w.cond.Wait()
	}
	if len(w.queue) == 0 {
		return pendingWrite{}, false
	}
	pw = w.queue[0]
	w.queue[0] = pendingWrite{} // release the payload
	w.queue = w.queue[1:]
	if len(w.queue) == 0 {
		w.queue = nil // let the drained backing array go
	}
	w.inflight = true
	return pw, true
}

// complete records one finished pwrite and wakes fences and backpressured
// enqueuers.
func (w *asyncWriter) complete(pw pendingWrite, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inflight = false
	w.queued -= len(pw.data)
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("filevol: async write at offset %d: %w", pw.off, err)
	}
	w.cond.Broadcast()
}

// enqueue copies data onto the queue (the caller reuses its buffer),
// blocking while the queue is over its byte cap.
func (w *asyncWriter) enqueue(f *os.File, off int64, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && w.queued > maxQueuedBytes {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	w.queue = append(w.queue, pendingWrite{f: f, off: off, data: cp})
	w.queued += len(cp)
	w.cond.Broadcast()
	return nil
}

// drain blocks until the queue is empty and no write is in flight — the
// flush-fence — and returns the sticky error, if any.
func (w *asyncWriter) drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && (len(w.queue) > 0 || w.inflight) {
		w.cond.Wait()
	}
	return w.err
}

// stop drains the queue and joins the writer goroutine. Any sticky error
// was (or will be) surfaced by a fence; stop itself cannot fail.
func (w *asyncWriter) stop() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.exited
}
