package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lobstore"
)

// sample is one request as the driver saw it: a span from start (first byte
// sent, or the due time in an open loop) to end (last byte received).
// Verification runs after end is stamped.
type sample struct {
	kind   opKind
	ok     bool
	chunks uint16
	bytes  int32 // user payload read or written
	seq    uint32
	start  int64 // ns since the run's epoch
	end    int64
}

// executor runs one request against some entry point of the stack.
type executor interface {
	exec(o op, payload []byte) (*reply, error)
}

func (c *conn) exec(o op, payload []byte) (*reply, error) { return c.do(o, payload) }

// handles runs requests in-process against object handles: engine handles
// when the store is Concurrent, the bare managers otherwise.
type handles struct {
	objs []lobstore.Object
	rep  reply
}

func openHandles(db *lobstore.DB, w workload) (*handles, error) {
	h := &handles{objs: make([]lobstore.Object, w.objects)}
	for i := range h.objs {
		obj, err := db.OpenObject(objName(i))
		if err != nil {
			return nil, err
		}
		h.objs[i] = obj
	}
	return h, nil
}

// view shares the handles with another goroutine; each needs its own reply.
func (h *handles) view() *handles { return &handles{objs: h.objs} }

func (h *handles) exec(o op, payload []byte) (*reply, error) {
	obj, r := h.objs[o.obj], &h.rep
	*r = reply{data: r.data[:0]}
	switch o.kind {
	case opRead:
		if cap(r.data) < o.n {
			r.data = make([]byte, o.n)
		}
		r.data = r.data[:o.n]
		r.err = obj.Read(o.off, r.data)
		return r, nil
	case opAppend:
		r.err = obj.Append(payload)
	case opInsert:
		r.err = obj.Insert(o.off, payload)
	case opDelete:
		r.err = obj.Delete(o.off, int64(o.n))
	}
	// The server reports the size after every mutation; so does this rung.
	r.size = uint64(obj.Size())
	return r, nil
}

func (h *handles) close() error {
	var errs []error
	for _, obj := range h.objs {
		errs = append(errs, obj.Close())
	}
	return errors.Join(errs...)
}

// checker decides whether a reply is correct. m may be nil (the lower ladder
// rungs replay the stream without a content model and check only errors and
// lengths).
type checker struct {
	m        *model
	allReads bool // edit-mix verifies every read; elsewhere 1 in verifyOneInN
	scratch  []byte
	reads    int
}

// check reports whether rep answers o correctly. wantSize is the object size
// a mutation must report, or -1 when pipelining leaves the order open and
// only the size's shape can be checked. An acknowledged mutation is applied
// to the model.
func (k *checker) check(o op, rep *reply, wantSize int64) bool {
	if rep.err != nil {
		return false
	}
	if o.kind == opRead {
		if len(rep.data) != o.n {
			return false
		}
		k.reads++
		if k.m == nil || (!k.allReads && k.reads%verifyOneInN != 0) {
			return true
		}
		if cap(k.scratch) < o.n {
			k.scratch = make([]byte, o.n)
		}
		want := k.scratch[:o.n]
		k.m.expect(want, o.obj, o.off)
		return bytes.Equal(rep.data, want)
	}
	if wantSize >= 0 {
		if int64(rep.size) != wantSize {
			return false
		}
	} else if rep.size < uint64(o.n) || rep.size%uint64(o.n) != 0 {
		return false
	}
	if k.m != nil {
		k.m.apply(o)
	}
	return true
}

// run is one driving phase's record: each client's samples plus, for an open
// loop, how late the dispatcher sent and how far behind schedule it fell.
type run struct {
	epoch      time.Time
	samples    [][]sample
	late       []int64 // send time - due time, ns
	backlogMax int
}

func (r *run) since() int64 { return int64(time.Since(r.epoch)) }

// errAborted stops a client when another one has already failed.
var errAborted = errors.New("aborted")

// closedLoop drives one goroutine per executor, each with one request in
// flight, for dur. A transport failure or a failed mutation ends the run
// with an error: after it the generated sizes no longer match the store.
func closedLoop(w workload, gens []*gen, execs []executor, m *model, dur time.Duration) (*run, error) {
	r := &run{epoch: time.Now(), samples: make([][]sample, len(execs))}
	var (
		wg    sync.WaitGroup
		errs  = make([]error, len(execs))
		abort atomic.Bool
	)
	for c := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = func() error {
				g, ex := gens[c], execs[c]
				chk := checker{m: m, allReads: w.verifyAll}
				payload := make([]byte, 2*editMeanOp)
				out := make([]sample, 0, 1<<16)
				defer func() { r.samples[c] = out }()
				for seq := uint32(0); ; seq++ {
					if abort.Load() {
						return errAborted
					}
					if r.since() >= int64(dur) {
						return nil
					}
					o := g.next()
					var data []byte
					if o.kind == opAppend || o.kind == opInsert {
						data = payload[:o.n]
						fill(data, o.key, 0)
					}
					start := r.since()
					rep, err := ex.exec(o, data)
					end := r.since()
					if err != nil {
						return fmt.Errorf("client %d: %s: %w", c, o.kind, err)
					}
					want := int64(-1)
					if o.mutates() && !w.shared {
						want = g.sizes[o.obj]
					}
					s := sample{kind: o.kind, chunks: uint16(rep.chunks), bytes: int32(o.n), seq: seq, start: start, end: end}
					s.ok = chk.check(o, rep, want)
					out = append(out, s)
					if !s.ok && o.mutates() {
						if rep.err != nil {
							return fmt.Errorf("client %d: %s of %d bytes at %d on %s: %w", c, o.kind, o.n, o.off, objName(o.obj), rep.err)
						}
						return fmt.Errorf("client %d: %s of %d bytes at %d on %s left size %d, want %d",
							c, o.kind, o.n, o.off, objName(o.obj), rep.size, want)
					}
				}
			}()
			if errs[c] != nil {
				abort.Store(true)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, errAborted) {
			return r, err
		}
	}
	return r, nil
}

// Dispatcher timing. time.Sleep on an idle process wakes through the
// runtime's poller, whose timeout is whole milliseconds, so the dispatcher
// sleeps in the kernel. There a thread's timers fire up to its timer slack
// late, 50 us by default, and waking from the sleep on an idle virtual CPU
// costs tens of microseconds more: charged to every request from its due
// time, the two were more than half of the median read. So the dispatcher
// asks for exact timers on its own thread, sleeps until spinBefore ahead of
// the due time and spins for the rest.
const (
	prSetTimerslack = 29 // PR_SET_TIMERSLACK in linux/prctl.h
	spinBefore      = int64(50 * time.Microsecond)
)

// exactTimers sets the calling thread's timer slack to its 1 ns minimum. The
// caller has locked its goroutine to the thread, which keeps the setting
// afterwards; exact timers harm nothing else in the process.
func exactTimers() error {
	if _, _, errno := syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_TIMERSLACK): %w", errno)
	}
	return nil
}

// sleep blocks the calling thread in the kernel for ns.
func sleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	syscall.Nanosleep(&ts, nil) //lobvet:ignore errdiscard — an early return (EINTR) only makes the caller's loop sleep again
}

// pending is a pipelined request awaiting its reply.
type pending struct {
	o   op
	due int64
	seq uint32
}

// openLoop sends request i at i/rate seconds after the epoch, whatever the
// server is doing, alternating over the connections and keeping at most
// openPipeline requests in flight on each. Latency runs from the due time,
// so a stall is charged to every request that was due during it.
func openLoop(gens []*gen, conns []*conn, m *model, rate int, dur time.Duration) (*run, error) {
	period := int64(time.Second) / int64(rate)
	r := &run{epoch: time.Now(), samples: make([][]sample, len(conns))}
	free := make([]chan int, len(conns))
	// inflight is written by the dispatcher and read by the receivers; the
	// socket orders the two, mu tells the race detector so.
	inflight := make([][openPipeline]pending, len(conns))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		recvErrs = make([]error, len(conns))
		stopping atomic.Bool
	)
	for c := range conns {
		// One token per pipeline slot.
		free[c] = make(chan int, openPipeline)
		for s := 0; s < openPipeline; s++ {
			free[c] <- s
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			chk := checker{m: m}
			out := make([]sample, 0, 1<<16)
			defer func() { r.samples[c] = out }()
			for {
				slot, err := conns[c].recv()
				end := r.since()
				if err != nil {
					if !stopping.Load() {
						recvErrs[c] = fmt.Errorf("connection %d: %w", c, err)
						// Unblock a dispatcher waiting for a slot.
						close(free[c])
					}
					return
				}
				mu.Lock()
				p := inflight[c][slot]
				mu.Unlock()
				rep := &conns[c].slots[slot]
				s := sample{kind: p.o.kind, chunks: uint16(rep.chunks), bytes: int32(p.o.n), seq: p.seq, start: p.due, end: end}
				s.ok = chk.check(p.o, rep, -1)
				out = append(out, s)
				conns[c].reset(slot)
				free[c] <- slot
			}
		}()
	}

	payload := make([]byte, openOpSize)
	sendErr := func() error {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if err := exactTimers(); err != nil {
			return err
		}
		for i := int64(0); ; i++ {
			due := i * period
			if due >= int64(dur) {
				return nil
			}
			for wait := due - r.since(); wait > 0; wait = due - r.since() {
				if wait > spinBefore {
					sleep(wait - spinBefore)
				}
			}
			c := int(i) % len(conns)
			slot, ok := <-free[c]
			if !ok {
				return errAborted
			}
			now := r.since()
			r.late = append(r.late, now-due)
			r.backlogMax = max(r.backlogMax, int((now-due)/period))
			o := gens[c].next()
			var data []byte
			if o.kind == opAppend {
				data = payload[:o.n]
				fill(data, o.key, 0)
			}
			mu.Lock()
			inflight[c][slot] = pending{o: o, due: due, seq: uint32(i)}
			mu.Unlock()
			if err := conns[c].send(o, data, slot); err != nil {
				return fmt.Errorf("connection %d: %s: %w", c, o.kind, err)
			}
		}
	}()
	if sendErr == nil {
		// Wait for every reply, then wake the receivers out of their reads.
		for c := range conns {
			for s := 0; s < openPipeline; s++ {
				if _, ok := <-free[c]; !ok {
					break
				}
			}
		}
	}
	stopping.Store(true)
	for _, c := range conns {
		if err := c.c.SetReadDeadline(time.Now()); err != nil && sendErr == nil {
			sendErr = err
		}
	}
	wg.Wait()
	for _, c := range conns {
		if err := c.c.SetReadDeadline(time.Time{}); err != nil && sendErr == nil {
			sendErr = err
		}
	}
	for _, err := range recvErrs {
		if err != nil {
			return r, err
		}
	}
	if sendErr != nil && !errors.Is(sendErr, errAborted) {
		return r, sendErr
	}
	return r, nil
}
