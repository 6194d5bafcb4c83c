package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/eos"
	"lobstore/internal/store"
)

func testParams(frames int) store.Params {
	p := store.DefaultParams()
	p.Pool.Frames = frames
	p.Volume = NewLatchedVolume(disk.NewMemVolume(p.Model.PageSize))
	return p
}

func newEngine(t *testing.T, frames int) *Engine {
	t.Helper()
	p := testParams(frames)
	st, err := store.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, Options{Params: p})
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			// The engine could not quiesce (e.g. a failing test left a
			// snapshot open); its hooks are still installed, so closing
			// the store here would misfire the sync interposer.
			t.Errorf("engine close: %v", err)
			return
		}
		if err := st.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})
	return e
}

func (l *objLock) queued() int {
	l.mu.Lock()
	n := len(l.queue)
	l.mu.Unlock()
	return n
}

func waitQueued(t *testing.T, l *objLock, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.queued() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters", want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// A writer queued behind a reader is granted before readers that arrived
// after it: the queue is FIFO, so neither side starves.
func TestLockFIFOWriterBeforeLaterReader(t *testing.T) {
	l := &objLock{id: disk.Addr{Area: 1, Page: 7}}
	ctx := context.Background()
	if err := l.acquire(ctx, false); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	go func() {
		if err := l.acquire(ctx, true); err != nil {
			t.Error(err)
		}
		order <- "writer"
		l.release(true)
	}()
	waitQueued(t, l, 1)
	go func() {
		if err := l.acquire(ctx, false); err != nil {
			t.Error(err)
		}
		order <- "reader"
		l.release(false)
	}()
	waitQueued(t, l, 2)
	l.release(false)
	if first := <-order; first != "writer" {
		t.Fatalf("queued writer should be granted first, got %q", first)
	}
	<-order
}

// Cancelled acquisitions report a wrapped ctx error and leave the queue
// clean: waiters behind the cancelled one still get the lock.
func TestLockCancelWrapsContextError(t *testing.T) {
	l := &objLock{id: disk.Addr{Area: 1, Page: 9}}
	bg := context.Background()
	if err := l.acquire(bg, true); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	errc := make(chan error, 1)
	go func() { errc <- l.acquire(ctx, true) }()
	waitQueued(t, l, 1)

	granted := make(chan error, 1)
	go func() { granted <- l.acquire(bg, false) }()
	waitQueued(t, l, 2)

	cancel()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: got %v, want errors.Is(context.Canceled)", err)
	}

	// Dropping the queued writer must let the reader behind it through
	// once the holder releases.
	l.release(true)
	select {
	case err := <-granted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader behind a cancelled writer never granted")
	}
	l.release(false)

	tctx, tcancel := context.WithTimeout(bg, time.Microsecond)
	defer tcancel()
	if err := l.acquire(bg, true); err != nil {
		t.Fatal(err)
	}
	if err := l.acquire(tctx, true); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out acquire: got %v, want errors.Is(context.DeadlineExceeded)", err)
	}
	l.release(true)
}

// Engine.Do propagates the lock manager's cancellation error without
// running the operation.
func TestDoCancelledContext(t *testing.T) {
	e := newEngine(t, 32)
	root := disk.Addr{Area: 0, Page: 3}
	l := e.locks.get(root)
	if err := l.acquire(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	defer l.release(true)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	ran := false
	err := e.Do(ctx, root, true, func() error { ran = true; return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do under held lock: got %v, want errors.Is(context.DeadlineExceeded)", err)
	}
	if ran {
		t.Fatal("operation ran despite cancelled lock acquisition")
	}
}

// Epoch reclamation defers exactly the batches an active pin could still
// observe.
func TestEpochLifecycle(t *testing.T) {
	var ep epochs
	p0 := ep.pin() // epoch 0
	ep.retire(nil, nil, 1)
	if got := ep.ready(); len(got) != 0 {
		t.Fatalf("batch retired at the pinned epoch reclaimed early: %v", got)
	}

	// A pin taken after the retirement does not hold the batch back.
	p1 := ep.pin() // epoch 1
	if got := ep.ready(); len(got) != 0 {
		t.Fatalf("old pin still active, want no reclaim, got %v", got)
	}
	ep.unpin(p0)
	if got := ep.ready(); len(got) != 1 {
		t.Fatalf("after the old pin drained: got %d batches, want 1", len(got))
	}

	ep.retire(nil, nil, 2)
	ep.retire(nil, nil, 3)
	ep.unpin(p1)
	if got := ep.ready(); len(got) != 2 {
		t.Fatalf("all pins drained: got %d batches, want 2", len(got))
	}
	if b, p := ep.pendingCounts(); b != 0 || p != 0 {
		t.Fatalf("drained epochs report %d batches, %d pins", b, p)
	}
}

// Operations submitted after Close fail with ErrClosed.
func TestClosedEngineRejectsWork(t *testing.T) {
	p := testParams(32)
	st, err := store.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := New(st, Options{Params: p})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: got %v, want ErrClosed", err)
	}
	opener := func(*store.Store, disk.Addr) (core.Object, error) { return nil, nil }
	if _, err := e.OpenSnapshot(disk.Addr{}, opener); !errors.Is(err, ErrClosed) {
		t.Fatalf("OpenSnapshot after Close: got %v, want ErrClosed", err)
	}
}

// Handle.Read is the serving hot path: on a warmed store it must not
// allocate. It hands Do a closure over (off, dst), which is free only
// while escape analysis keeps that closure on the stack: a Do or run that
// stores f or forwards it to a goroutine fails here.
func TestHandleReadZeroAllocs(t *testing.T) {
	e := newEngine(t, 128)
	var h *Handle
	if err := e.Run(func() error {
		o, err := eos.New(e.st, eos.Config{Threshold: 4})
		if err != nil {
			return err
		}
		h = e.WrapObject(o, o.Root())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4<<10)
	read := func() {
		if err := h.Read(8<<10, dst); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the pool, the lock table and the OpState pool
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("Handle.Read allocates %.0f times per op, want 0", allocs)
	}
}
