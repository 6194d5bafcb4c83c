package engine

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"lobstore/internal/disk"
	"lobstore/internal/filevol"
	"lobstore/internal/store"
)

// TestGroupCommitBatchingUnderConcurrency: a committer parked at a
// durability barrier releases storemu for its device flush, so committers
// on other objects reach their own barriers meanwhile and share one flush.
// The first writer's flush is held open until every other writer's barrier
// has joined the group forming behind it. Were storemu held across the
// flush, none could arrive and the wait would time out.
func TestGroupCommitBatchingUnderConcurrency(t *testing.T) {
	const (
		writers = 8
		stuck   = 30 * time.Second
	)
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	hold := func() error {
		if armed.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		return nil
	}

	p := testParams(256)
	vol, err := filevol.Open(t.TempDir(), p.Model.PageSize,
		filevol.WithGroupCommit(filevol.GroupCommit{MaxBatch: writers}), filevol.WithFlushHook(hold))
	if err != nil {
		t.Fatal(err)
	}
	p.Volume = vol
	st, err := store.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	e := New(st)
	defer func() {
		if err := e.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	}()

	handles := make([]*Handle, writers)
	for i := range handles {
		var (
			obj  Object
			root disk.Addr
		)
		if err := e.Run(func() error {
			var err error
			obj, root, err = managerCases[0].make(st)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		handles[i] = e.WrapObject(obj, root)
	}

	done := make(chan error, writers)
	appendOne := func(i int) {
		done <- handles[i].Append(bytes.Repeat([]byte{byte('a' + i)}, 4096))
	}
	armed.Store(true)
	go appendOne(0)
	select {
	case <-entered:
	case <-time.After(stuck):
		t.Fatal("the first writer's flush never started")
	}
	held := vol.SyncStats().Barriers
	for i := 1; i < writers; i++ {
		go appendOne(i)
	}
	for deadline := time.Now().Add(stuck); vol.SyncStats().Barriers < held+writers-1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d of %d writers reached a barrier while a flush was in flight",
				vol.SyncStats().Barriers-held, writers-1)
		}
	}
	close(release)
	for range handles {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	if s := vol.SyncStats(); s.MaxBatch < writers-1 {
		t.Fatalf("largest group %d, want the %d barriers that queued behind the held flush", s.MaxBatch, writers-1)
	}
}
