package filevol

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lobstore/internal/disk"
	"lobstore/internal/obs"
)

// These tests order goroutines with a flush hook and channels, never with
// sleeps: a flushGate parks a chosen flush between its seal and its
// fdatasyncs — mutex dropped, turn held — and the test decides what
// happens meanwhile and how the flush ends.

// flushGate is a WithFlushHook. An armed gate parks the next flush: the
// hook reports on entered, then waits on release for its result. Unarmed
// flushes pass straight through.
type flushGate struct {
	armed   atomic.Bool
	calls   atomic.Int64
	entered chan struct{}
	release chan error
}

func newFlushGate() *flushGate {
	return &flushGate{entered: make(chan struct{}), release: make(chan error)}
}

func (g *flushGate) hook() error {
	g.calls.Add(1)
	if !g.armed.CompareAndSwap(true, false) {
		return nil
	}
	g.entered <- struct{}{}
	return <-g.release
}

// stuck bounds how long a test waits for something the pipeline owes it;
// it only ever expires on a failing build.
const stuck = 30 * time.Second

func (g *flushGate) awaitFlush(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(stuck):
		t.Fatalf("no flush reached the gate")
	}
}

func await(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(stuck):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// writeSync runs {WriteRun; Sync} on its own goroutine.
func writeSync(v *Volume, p int, fill byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		if err := v.WriteRun(disk.Addr{Page: disk.PageID(p)}, 1, page(fill)); err != nil {
			done <- err
			return
		}
		done <- v.Sync()
	}()
	return done
}

// awaitBarriers spins until n barriers have joined the pipeline.
func awaitBarriers(t *testing.T, v *Volume, n int64) {
	t.Helper()
	for deadline := time.Now().Add(stuck); v.SyncStats().Barriers < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d barriers arrived", v.SyncStats().Barriers, n)
		}
	}
}

// viewErr returns the error of viewing the first page.
func viewErr(v *Volume) error {
	_, err := v.View(disk.Addr{Page: 0}, 0, pageSize, nil)
	return err
}

func readPage(t *testing.T, v *Volume, p int) []byte {
	t.Helper()
	got := make([]byte, pageSize)
	if err := v.ReadRun(disk.Addr{Page: disk.PageID(p)}, 1, got); err != nil {
		t.Fatalf("ReadRun page %d: %v", p, err)
	}
	return got
}

// TestFlushInFlightBlocksNobody: while one committer's device flush is
// held open, another caller's read, write and a write past the file's end
// (which zero-fills the gap) all complete — the volume mutex does not
// cover the flush.
func TestFlushInFlightBlocksNobody(t *testing.T) {
	gate := newFlushGate()
	v := openTest(t, t.TempDir(),
		WithGroupCommit(GroupCommit{MaxBatch: 4}), WithFlushHook(gate.hook))
	defer v.Close()
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	gate.armed.Store(true)
	barrier := writeSync(v, 0, 0xA1)
	gate.awaitFlush(t)

	ops := make(chan error, 1)
	go func() {
		got := make([]byte, pageSize)
		if err := v.ReadRun(disk.Addr{Page: 0}, 1, got); err != nil {
			ops <- err
			return
		}
		if !bytes.Equal(got, page(0xA1)) {
			ops <- errors.New("read during the flush missed the flushed write")
			return
		}
		if err := v.WriteRun(disk.Addr{Page: 1}, 1, page(0xB2)); err != nil {
			ops <- err
			return
		}
		ops <- v.WriteRun(disk.Addr{Page: 32}, 1, page(0xC3))
	}()
	if err := await(t, "read/write/fill during a flush", ops); err != nil {
		t.Fatalf("during the flush: %v", err)
	}
	select {
	case err := <-barrier:
		t.Fatalf("barrier acknowledged (%v) while its flush was still open", err)
	default:
	}

	gate.release <- nil
	if err := await(t, "held barrier", barrier); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// The mid-flush write re-dirtied its area: the next barrier flushes it.
	if err := v.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if s := v.SyncStats(); s.Batches != 2 || s.Fsyncs != 2 {
		t.Fatalf("stats = %+v, want 2 batches of 1 fsync", s)
	}
}

// TestGroupFormsBehindFlush: at MaxDelay 0, K barriers arriving while a
// flush is in flight are all acknowledged by ONE second flush.
func TestGroupFormsBehindFlush(t *testing.T) {
	const k = 5
	gate := newFlushGate()
	v := openTest(t, t.TempDir(),
		WithGroupCommit(GroupCommit{MaxBatch: 16}), WithFlushHook(gate.hook))
	defer v.Close()
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	gate.armed.Store(true)
	first := writeSync(v, 0, 0x01)
	gate.awaitFlush(t)

	var behind [k]<-chan error
	for i := range behind {
		behind[i] = writeSync(v, 1+i, byte(0x10+i))
	}
	awaitBarriers(t, v, 1+k)
	for i, done := range behind {
		select {
		case err := <-done:
			t.Fatalf("barrier %d acknowledged (%v) by a flush sealed before it arrived", i, err)
		default:
		}
	}

	gate.release <- nil
	if err := await(t, "first barrier", first); err != nil {
		t.Fatalf("first Sync: %v", err)
	}
	for i, done := range behind {
		if err := await(t, "grouped barrier", done); err != nil {
			t.Fatalf("barrier %d: %v", i, err)
		}
	}
	want := disk.SyncStats{Barriers: 1 + k, Batches: 2, Fsyncs: 2, MaxBatch: k}
	if s := v.SyncStats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	if n := gate.calls.Load(); n != 2 {
		t.Fatalf("%d flushes ran, want 2", n)
	}
}

// TestWriteDuringFlushRollsBack pins the two-generation crash log: writes
// landing while a flush is in flight are not covered by it, so a power cut
// at the next barrier must roll them back — to the bytes that flush made
// durable — while the flush's own writes stay.
func TestWriteDuringFlushRollsBack(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		dir := t.TempDir()
		gate := newFlushGate()
		v := openTest(t, dir, WithCrashLog(), WithGroupCommit(GroupCommit{MaxBatch: 4}), WithFlushHook(gate.hook))
		if _, err := v.AddArea(64); err != nil {
			t.Fatalf("AddArea: %v", err)
		}
		write := func(p int, fill byte) {
			t.Helper()
			if err := v.WriteRun(disk.Addr{Page: disk.PageID(p)}, 1, page(fill)); err != nil {
				t.Fatalf("WriteRun page %d: %v", p, err)
			}
		}

		// Flush 1: pages 0 and 1, file 2 pages long.
		write(0, 0xA0)
		write(1, 0xB0)
		if err := v.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}

		// Flush 2, held open: rewrites page 0, grows the file to 6 pages.
		write(0, 0xA1)
		write(5, 0xD0)
		gate.armed.Store(true)
		held := make(chan error, 1)
		go func() { held <- v.Sync() }()
		gate.awaitFlush(t)

		// Mid-flush: page 0 is now in both generations, page 1 only in
		// the new one, and page 10 grows the file a second time.
		write(0, 0xA2)
		write(1, 0xB1)
		write(10, 0xE0)

		gate.release <- nil
		if err := await(t, "held barrier", held); err != nil {
			t.Fatalf("held Sync: %v", err)
		}

		if err := v.FailAtBarrier(1); err != nil {
			t.Fatalf("FailAtBarrier: %v", err)
		}
		if err := v.Sync(); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("Sync = %v, want ErrPowerCut", err)
		}
		if err := v.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		v2 := openTest(t, dir)
		defer v2.Close()
		if _, err := v2.AddArea(64); err != nil {
			t.Fatalf("reopen AddArea: %v", err)
		}
		for _, c := range []struct {
			page int
			fill byte
		}{{0, 0xA1}, {1, 0xB0}, {5, 0xD0}, {10, 0}} {
			if got := readPage(t, v2, c.page); !bytes.Equal(got, page(c.fill)) {
				t.Errorf("page %d holds %#x, want %#x (the last acknowledged barrier's)", c.page, got[0], c.fill)
			}
		}
		st, err := os.Stat(filepath.Join(dir, "area-0.lob"))
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		if want := int64(6 * pageSize); st.Size() != want {
			t.Errorf("file is %d bytes, want %d (the mid-flush growth rolled back, the flushed one kept)", st.Size(), want)
		}
	})
}

// TestFsyncFailureIsFailStop: the first failed device flush poisons the
// volume for every member of its group and every later call; nothing is
// retried; a reopen recovers.
func TestFsyncFailureIsFailStop(t *testing.T) {
	errInjected := errors.New("injected fsync failure")

	// afterFailure checks the poisoned volume and its reopening.
	afterFailure := func(t *testing.T, v *Volume, dir string, gate *flushGate) {
		t.Helper()
		buf := make([]byte, pageSize)
		for name, err := range map[string]error{
			"ReadRun":  v.ReadRun(disk.Addr{Page: 0}, 1, buf),
			"WriteRun": v.WriteRun(disk.Addr{Page: 0}, 1, buf),
			"View":     viewErr(v),
			"Sync":     v.Sync(),
			"SyncAll":  v.SyncAll(),
		} {
			if !errors.Is(err, ErrVolumeFailed) {
				t.Errorf("%s on the failed volume = %v, want ErrVolumeFailed", name, err)
			}
		}
		flushes := gate.calls.Load()
		if err := v.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if n := gate.calls.Load(); n != flushes {
			t.Fatalf("Close retried the flush on a failed volume")
		}
		v2 := openTest(t, dir)
		defer v2.Close()
		if _, err := v2.AddArea(64); err != nil {
			t.Fatalf("reopen AddArea: %v", err)
		}
		readPage(t, v2, 0)
		if err := v2.Sync(); err != nil {
			t.Fatalf("Sync after reopen: %v", err)
		}
	}
	checkFailed := func(t *testing.T, who string, err error) {
		t.Helper()
		if !errors.Is(err, ErrVolumeFailed) || !errors.Is(err, errInjected) {
			t.Fatalf("%s = %v, want ErrVolumeFailed wrapping the injected error", who, err)
		}
	}

	// The failing flush's group has a leader and a follower: both formed
	// behind a held first flush.
	t.Run("group", func(t *testing.T) {
		dir := t.TempDir()
		gate := newFlushGate()
		v := openTest(t, dir, WithGroupCommit(GroupCommit{MaxBatch: 4}), WithFlushHook(gate.hook))
		if _, err := v.AddArea(64); err != nil {
			t.Fatalf("AddArea: %v", err)
		}
		gate.armed.Store(true)
		first := writeSync(v, 0, 0x01)
		gate.awaitFlush(t)
		leader := writeSync(v, 1, 0x02)
		awaitBarriers(t, v, 2)
		follower := writeSync(v, 2, 0x03)
		awaitBarriers(t, v, 3)

		gate.armed.Store(true)
		gate.release <- nil
		if err := await(t, "first barrier", first); err != nil {
			t.Fatalf("first Sync: %v", err)
		}
		gate.awaitFlush(t)
		gate.release <- errInjected
		checkFailed(t, "leader", await(t, "leader", leader))
		checkFailed(t, "follower", await(t, "follower", follower))
		if s := v.SyncStats(); s.Batches != 1 {
			t.Fatalf("the failed flush was counted: %+v", s)
		}
		afterFailure(t, v, dir, gate)
	})

	// Batching off — MaxBatch <= 1, or no group-commit option at all — is
	// the same code with groups of one.
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"batch-of-one", []Option{WithGroupCommit(GroupCommit{MaxBatch: 1})}},
		{"no-pipeline", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			gate := newFlushGate()
			v := openTest(t, dir, append(c.opts, WithFlushHook(gate.hook))...)
			if _, err := v.AddArea(64); err != nil {
				t.Fatalf("AddArea: %v", err)
			}
			gate.armed.Store(true)
			done := writeSync(v, 0, 0x01)
			gate.awaitFlush(t)
			gate.release <- errInjected
			checkFailed(t, "Sync", await(t, "Sync", done))
			afterFailure(t, v, dir, gate)
		})
	}
}

// TestLateTracerSeesOnlyLaterFlushes: the disk decorator's SyncStats
// snapshot advances on every barrier, so a tracer attached after N
// barriers counts the flushes after it — not the N before.
func TestLateTracerSeesOnlyLaterFlushes(t *testing.T) {
	v := openTest(t, t.TempDir(), WithGroupCommit(GroupCommit{MaxBatch: 4}))
	d := newDiskOn(t, v)
	defer d.Close()
	if _, err := d.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	tr := obs.NewTracer()
	d.SetTracer(tr)
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := d.Write(disk.Addr{Page: disk.PageID(i)}, 1, page(byte(i))); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if err := d.Barrier(); err != nil {
				t.Fatalf("Barrier: %v", err)
			}
		}
	}

	commit(7)
	m := obs.NewMetrics()
	tr.Attach(m)
	commit(3)
	for _, name := range []string{"vol.fsyncs", "vol.groupcommit.batches", "vol.groupcommit.acks"} {
		if got := m.Counter(name); got != 3 {
			t.Errorf("%s = %d after 3 traced barriers (7 untraced before), want 3", name, got)
		}
	}
}

// TestBarrierHammerExactlyOnce runs many committers through a small cap at
// MaxDelay 0 — groups form only behind flushes in flight — and checks every
// barrier was acknowledged exactly once by a flush that covers it.
func TestBarrierHammerExactlyOnce(t *testing.T) {
	const (
		workers = 12
		rounds  = 40
	)
	v := openTest(t, t.TempDir(), WithGroupCommit(GroupCommit{MaxBatch: 3}))
	defer v.Close()
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := v.WriteRun(disk.Addr{Page: disk.PageID(w)}, 1, page(byte(r))); err != nil {
					errs <- err
					return
				}
				if err := v.Sync(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker: %v", err)
	}
	s := v.SyncStats()
	if s.Barriers != workers*rounds {
		t.Fatalf("Barriers = %d, want %d", s.Barriers, workers*rounds)
	}
	if s.MaxBatch > 3 {
		t.Fatalf("MaxBatch = %d exceeds the cap of 3", s.MaxBatch)
	}
	if s.Batches*3 < s.Barriers || s.Batches > s.Barriers {
		t.Fatalf("%d batches cannot have acknowledged %d barriers at cap 3", s.Batches, s.Barriers)
	}
}
