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

// TestGroupCommitBatches pins the leader/follower mechanics: with a batch
// of 4 and a generous delay, 4 concurrent barriers must be acknowledged by
// exactly one flush pass.
func TestGroupCommitBatches(t *testing.T) {
	v := openTest(t, t.TempDir(),
		WithPolicy(SyncCommit),
		WithGroupCommit(GroupCommit{MaxBatch: 4, MaxDelay: 5 * time.Second}))
	defer v.Close()
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := v.WriteRun(disk.Addr{Page: disk.PageID(i)}, 1, page(byte(i))); err != nil {
				errs[i] = err
				return
			}
			errs[i] = v.Sync()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}

	s := v.SyncStats()
	if s.Barriers != callers {
		t.Fatalf("Barriers = %d, want %d", s.Barriers, callers)
	}
	if s.Batches != 1 {
		t.Fatalf("Batches = %d, want 1 (one shared flush)", s.Batches)
	}
	if s.MaxBatch != callers {
		t.Fatalf("MaxBatch = %d, want %d", s.MaxBatch, callers)
	}
	if s.Fsyncs != 1 {
		t.Fatalf("Fsyncs = %d, want 1 (one dirty area)", s.Fsyncs)
	}
}

// TestGroupCommitHammer is the -race combiner hammer: concurrent callers ×
// every policy × injected flush latency, asserting exactly-once
// acknowledgement — every Sync call is counted once in Barriers, every
// commit-policy barrier is covered by some batch, and no barrier returns
// before its flush. The "default" leg opens the volume with no group-commit
// option: the same pipeline at groups of one, safe for the same callers.
func TestGroupCommitHammer(t *testing.T) {
	const maxBatch = 8
	legs := []struct {
		name string
		opts []Option
		cap  int64
	}{
		{"batch-8", []Option{WithGroupCommit(GroupCommit{MaxBatch: maxBatch, MaxDelay: time.Millisecond})}, maxBatch},
		{"default", nil, 1},
	}
	for _, pol := range []Policy{SyncAlways, SyncCommit, SyncNever} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for _, leg := range legs {
				leg := leg
				t.Run(leg.name, func(t *testing.T) {
					t.Parallel()
					opts := append([]Option{WithPolicy(pol), WithSyncDelay(200 * time.Microsecond)}, leg.opts...)
					v := openTest(t, t.TempDir(), opts...)
					defer v.Close()
					if _, err := v.AddArea(256); err != nil {
						t.Fatalf("AddArea: %v", err)
					}

					const (
						workers = 16
						rounds  = 25
					)
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
						if s.MaxBatch < 1 || s.MaxBatch > leg.cap {
							t.Fatalf("MaxBatch = %d, want 1..%d", s.MaxBatch, leg.cap)
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
// barrier exactly.
func TestGroupCommitDoomedGroup(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir,
		WithPolicy(SyncCommit),
		WithCrashLog(),
		WithGroupCommit(GroupCommit{MaxBatch: 3, MaxDelay: 5 * time.Second}))
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

	// The cut lands on the next barrier — i.e. inside the next group,
	// between its members' data writes and their shared fsync.
	if err := v.FailAtBarrier(1); err != nil {
		t.Fatalf("FailAtBarrier: %v", err)
	}

	const members = 3
	var wg sync.WaitGroup
	errs := make([]error, members)
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := v.WriteRun(disk.Addr{Page: disk.PageID(1 + i)}, 1, page(0xEE)); err != nil {
				errs[i] = err
				return
			}
			errs[i] = v.Sync()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrPowerCut) {
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
