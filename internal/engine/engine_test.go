package engine

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lobstore/internal/disk"
	"lobstore/internal/eos"
	"lobstore/internal/store"
)

// testParams sizes segments for the engine tests' small objects. The
// default 8192-page maximum fits only seven buddy spaces in the leaf
// area, and a Starburst append after a reorganisation takes a maximal
// segment: with snapshot readers pinning the epochs that retire them,
// seven such segments can be held at once and the next allocation finds
// the area full. At 512 pages the area holds 127 spaces, more than the
// hammer's 60 mutations can pin.
func testParams(frames int) store.Params {
	p := store.DefaultParams()
	p.Pool.Frames = frames
	p.MaxOrder = 9
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
	e := New(st)
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

// A writer queued behind a reader is handed the lock before a reader that
// arrived after it: hand-off is FIFO, whatever the operation, so nothing
// starves.
func TestLockFIFOWriterBeforeLaterReader(t *testing.T) {
	l := &objLock{}
	l.acquire()
	order := make(chan string, 2)
	go func() {
		l.acquire()
		order <- "writer"
		l.release()
	}()
	waitQueued(t, l, 1)
	go func() {
		l.acquire()
		order <- "reader"
		l.release()
	}()
	waitQueued(t, l, 2)
	l.release()
	if first := <-order; first != "writer" {
		t.Fatalf("queued writer should be granted first, got %q", first)
	}
	<-order
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
	e := New(st)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: got %v, want ErrClosed", err)
	}
	opener := func() (Object, error) { return nil, nil }
	if _, err := e.OpenSnapshot(disk.Addr{}, opener); !errors.Is(err, ErrClosed) {
		t.Fatalf("OpenSnapshot after Close: got %v, want ErrClosed", err)
	}
}

// Close races a streaming read: it must not return — after which the store
// closes its volume — while the read still holds its pin, and the views
// the pin lent, read meanwhile, must stay intact.
func TestCloseWaitsForPinnedCopies(t *testing.T) {
	e := newEngine(t, 64)
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
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := h.Append(data); err != nil {
		t.Fatal(err)
	}
	p, err := h.Pin(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	views, err := p.Views(0, int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	off := 0
	for _, v := range views {
		for len(v) > 0 {
			time.Sleep(time.Millisecond)
			k := min(len(v), 8<<10)
			if !bytes.Equal(v[:k], data[off:off+k]) {
				t.Fatalf("view at %d differs from the appended bytes", off)
			}
			off, v = off+k, v[k:]
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) while a pinned read still held its views", err)
			default:
			}
		}
	}
	if off != len(data) {
		t.Fatalf("views cover %d bytes, want %d", off, len(data))
	}
	if err := p.Release(); err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close after the copy drained: %v", err)
	}
	if _, err := h.Pin(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Pin after Close: got %v, want ErrClosed", err)
	}
}

// One snapshot is read from several goroutines while another closes it:
// every read either returns the frozen bytes or fails because the
// snapshot is closed, and the close leaves nothing pinned.
func TestSnapshotConcurrentReadsAndClose(t *testing.T) {
	e := newEngine(t, 64)
	mc := managerCases[2] // eos
	var (
		obj  Object
		root disk.Addr
	)
	if err := e.Run(func() (err error) {
		obj, root, err = mc.make(e.st)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("snapshot"), 4<<10)
	if err := e.Do(root, func() error { return obj.Append(data) }); err != nil {
		t.Fatal(err)
	}
	sn, err := mc.snapshot(e, root)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(data))
			for i := 0; i < 50; i++ {
				if err := sn.Read(0, buf); err != nil {
					if !strings.Contains(err.Error(), "closed") {
						t.Errorf("read: %v", err)
					}
					return
				}
				if !bytes.Equal(buf, data) {
					t.Error("snapshot read returned bytes other than the frozen image")
					return
				}
			}
		}()
	}
	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if st := e.Stats(); st.OpenSnapshots != 0 || st.ActivePins != 0 {
		t.Fatalf("engine not drained after the close: %+v", st)
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
