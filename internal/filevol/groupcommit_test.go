package filevol

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lobstore/internal/disk"
)

// TestGroupCommitBatches pins the leader/follower mechanics and the cap:
// six barriers arrive behind a held flush under a cap of 4. The member that
// brings the first group to 4 closes it, the next two form a second group,
// and each group is acknowledged by one flush.
func TestGroupCommitBatches(t *testing.T) {
	const behind = 6
	gate := newFlushGate()
	v := openTest(t, t.TempDir(),
		WithPolicy(SyncCommit),
		WithGroupCommit(GroupCommit{MaxBatch: 4}), WithFlushHook(gate.hook))
	defer v.Close()
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	gate.armed.Store(true)
	first := writeSync(v, 0, 0x01)
	gate.awaitFlush(t)
	var done [behind]<-chan error
	for i := range done {
		done[i] = writeSync(v, 1+i, byte(0x10+i))
	}
	awaitBarriers(t, v, 1+behind)

	gate.release <- nil
	if err := await(t, "first barrier", first); err != nil {
		t.Fatalf("first Sync: %v", err)
	}
	for i, d := range done {
		if err := await(t, "grouped barrier", d); err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}

	// Every write behind the held flush landed before either group sealed,
	// so the first group to flush covers the one dirty area and the other
	// finds nothing left to fsync.
	want := disk.SyncStats{Barriers: 1 + behind, Batches: 3, Fsyncs: 2, MaxBatch: 4}
	if s := v.SyncStats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	if n := gate.calls.Load(); n != 3 {
		t.Fatalf("%d flushes ran, want 3 (the held one and one per group)", n)
	}
}

// TestGroupCommitHammer is the -race combiner hammer: concurrent callers ×
// every policy × injected flush latency, asserting exactly-once
// acknowledgement — every Sync call is counted once in Barriers, every
// commit-policy barrier is covered by some batch, and no barrier returns
// before its flush. The "default" leg opens the volume with no group-commit
// option: the same pipeline at groups of one, safe for the same callers.
// Under policy commit the "batch-8" leg holds the first flush open until
// every worker's first barrier has joined behind it, so full groups are
// forced rather than left to the scheduler.
func TestGroupCommitHammer(t *testing.T) {
	const maxBatch = 8
	legs := []struct {
		name string
		opts []Option
		cap  int64
	}{
		{"batch-8", []Option{WithGroupCommit(GroupCommit{MaxBatch: maxBatch})}, maxBatch},
		{"default", nil, 1},
	}
	for _, pol := range []Policy{SyncAlways, SyncCommit, SyncNever} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for _, leg := range legs {
				leg := leg
				t.Run(leg.name, func(t *testing.T) {
					t.Parallel()
					gate := newFlushGate()
					delayed := func() error {
						err := gate.hook()
						time.Sleep(200 * time.Microsecond)
						return err
					}
					opts := append([]Option{WithPolicy(pol), WithFlushHook(delayed)}, leg.opts...)
					v := openTest(t, t.TempDir(), opts...)
					defer v.Close()
					if _, err := v.AddArea(256); err != nil {
						t.Fatalf("AddArea: %v", err)
					}

					const (
						workers = 16
						rounds  = 25
					)
					hold := pol == SyncCommit && leg.cap > 1
					gate.armed.Store(hold)
					var wg sync.WaitGroup
					errCh := make(chan error, workers)
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(w)))
							buf := page(byte(w))
							for r := 0; r < rounds; r++ {
								addr := disk.Addr{Page: disk.PageID(w*8 + rng.Intn(8))}
								if err := v.WriteRun(addr, 1, buf); err != nil {
									errCh <- err
									return
								}
								if err := v.Sync(); err != nil {
									errCh <- err
									return
								}
							}
						}(w)
					}
					if hold {
						gate.awaitFlush(t)
						awaitBarriers(t, v, workers)
						gate.release <- nil
					}
					wg.Wait()
					close(errCh)
					for err := range errCh {
						t.Fatalf("worker: %v", err)
					}

					s := v.SyncStats()
					if want := int64(workers * rounds); s.Barriers != want {
						t.Fatalf("Barriers = %d, want %d (lost or double acknowledgement)", s.Barriers, want)
					}
					switch {
					case pol != SyncCommit:
						// always/never barriers do not flush through the combiner.
						if s.Batches != 0 || s.Fsyncs != 0 {
							t.Fatalf("policy %v flushed: %+v", pol, s)
						}
					case leg.cap == 1:
						if s.Batches != s.Barriers || s.MaxBatch != 1 {
							t.Fatalf("groups of one: %+v, want Batches == Barriers and MaxBatch 1", s)
						}
					default:
						if s.Batches == 0 || s.Batches > s.Barriers {
							t.Fatalf("Batches = %d out of range (1..%d)", s.Batches, s.Barriers)
						}
						// The 15 barriers behind the held flush fill a group.
						if s.MaxBatch != leg.cap {
							t.Fatalf("MaxBatch = %d, want the cap %d", s.MaxBatch, leg.cap)
						}
					}
				})
			}
		})
	}
}

// TestGroupCommitDoomedGroup pins the crash semantics: a power cut armed
// to land inside a commit group dooms every member — none is acknowledged,
// all see ErrPowerCut — and the files roll back to the last acknowledged
// barrier exactly. The group forms behind a held flush, so all three
// members are in it when its leader seals.
func TestGroupCommitDoomedGroup(t *testing.T) {
	dir := t.TempDir()
	gate := newFlushGate()
	v := openTest(t, dir,
		WithPolicy(SyncCommit),
		WithCrashLog(),
		WithGroupCommit(GroupCommit{MaxBatch: 3}), WithFlushHook(gate.hook))
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	// Barrier 1: committed state the cut must preserve.
	committed := page(0x5A)
	if err := v.WriteRun(disk.Addr{Page: 0}, 1, committed); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Barrier 2 writes nothing; its flush is held open while the group
	// forms. The cut lands on the barrier after it — the group's first
	// member — i.e. between the members' data writes and their shared
	// fsync.
	gate.armed.Store(true)
	held := make(chan error, 1)
	go func() { held <- v.Sync() }()
	gate.awaitFlush(t)
	if err := v.FailAtBarrier(1); err != nil {
		t.Fatalf("FailAtBarrier: %v", err)
	}

	const members = 3
	var done [members]<-chan error
	for i := range done {
		done[i] = writeSync(v, 1+i, 0xEE)
	}
	awaitBarriers(t, v, 2+members)
	gate.release <- nil
	if err := await(t, "held barrier", held); err != nil {
		t.Fatalf("held Sync: %v", err)
	}
	for i, d := range done {
		if err := await(t, "doomed member", d); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("member %d acknowledged across a power cut: err = %v", i, err)
		}
	}
	if err := v.Close(); err != nil && !errors.Is(err, ErrPowerCut) {
		t.Fatalf("Close: %v", err)
	}

	// Reopen as a fresh process would: the acknowledged barrier's data is
	// intact, the doomed group's writes are gone.
	v2 := openTest(t, dir)
	defer v2.Close()
	if _, err := v2.AddArea(64); err != nil {
		t.Fatalf("reopen AddArea: %v", err)
	}
	got := make([]byte, pageSize)
	if err := v2.ReadRun(disk.Addr{Page: 0}, 1, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatalf("acknowledged page lost by the cut")
	}
	for p := 1; p <= members; p++ {
		if err := v2.ReadRun(disk.Addr{Page: disk.PageID(p)}, 1, got); err != nil {
			t.Fatalf("ReadRun page %d: %v", p, err)
		}
		if !bytes.Equal(got, make([]byte, pageSize)) {
			t.Fatalf("unacknowledged page %d survived the cut", p)
		}
	}
}
