package lobstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lobstore"
)

func concurrentConfig() lobstore.Config {
	cfg := testConfig()
	cfg.Concurrent = true
	// Open rejects starvation-prone pools under Concurrent; the paper's
	// 12-frame default is exactly that.
	cfg.BufferPages = lobstore.MinConcurrentBufferPages
	return cfg
}

// TestConcurrentRequiresMaterialize pins the facade contract: pinned
// reads serve committed bytes from the volume, so Concurrent without
// Materialize is a configuration error — wrapped so front-ends can errors.Is it — not a
// silent downgrade.
func TestConcurrentRequiresMaterialize(t *testing.T) {
	cfg := concurrentConfig()
	cfg.Materialize = false
	_, err := lobstore.Open(cfg)
	if err == nil {
		t.Fatal("Open accepted Concurrent without Materialize")
	}
	if !errors.Is(err, lobstore.ErrConfig) {
		t.Fatalf("got %v, want an ErrConfig-wrapped error", err)
	}
}

// A read of an object's last, partial page races the appends that
// complete it. The memory backend lends the reader views of its array
// outside any latch, while an append's tail completion writes that page
// again with the committed bytes unchanged; under the race detector this
// fails if the rewrite stores over them.
func TestConcurrentTailReadDuringAppend(t *testing.T) {
	db, err := lobstore.Open(concurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ps := int64(db.PageSize())
	at := func(i int64) byte { return byte(i % 251) }
	for _, spec := range []lobstore.ObjectSpec{
		{Engine: "esm", LeafPages: 4},
		{Engine: "starburst"},
		{Engine: "eos", Threshold: 4},
	} {
		obj, err := db.Create("tail-"+spec.Engine, spec)
		if err != nil {
			t.Fatal(err)
		}
		const appends, chunk = 200, 100
		done := make(chan struct{})
		readErr := make(chan error, 1)
		go func() {
			defer close(readErr)
			buf := make([]byte, ps)
			for {
				select {
				case <-done:
					return
				default:
				}
				size := obj.Size()
				from := size - size%ps
				if from == size {
					continue
				}
				if err := obj.Read(from, buf[:size-from]); err != nil {
					readErr <- fmt.Errorf("%s: read [%d,%d): %w", spec.Engine, from, size, err)
					return
				}
				for i, b := range buf[:size-from] {
					if b != at(from+int64(i)) {
						readErr <- fmt.Errorf("%s: byte %d of the last page reads %#x", spec.Engine, from+int64(i), b)
						return
					}
				}
			}
		}()
		data := make([]byte, chunk)
		for n := int64(0); err == nil && n < appends*chunk; n += chunk {
			for i := range data {
				data[i] = at(n + int64(i))
			}
			err = obj.Append(data)
		}
		close(done)
		if rerr := <-readErr; rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			t.Fatalf("%s: append: %v", spec.Engine, err)
		}
	}
}

// TestConcurrentRejectsStarvationPronePool pins the PR 9 sizing note as
// an enforced contract: Concurrent with the paper's 12-frame pool would
// starve FixRun once commits overlap, so Open refuses it up front.
func TestConcurrentRejectsStarvationPronePool(t *testing.T) {
	cfg := concurrentConfig()
	cfg.BufferPages = lobstore.MinConcurrentBufferPages - 1
	_, err := lobstore.Open(cfg)
	if err == nil {
		t.Fatal("Open accepted a starvation-prone BufferPages under Concurrent")
	}
	if !errors.Is(err, lobstore.ErrConfig) {
		t.Fatalf("got %v, want an ErrConfig-wrapped error", err)
	}
	// The same pool without Concurrent stays legal: the single-threaded
	// simulation never parks a committer.
	cfg.Concurrent = false
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatalf("non-concurrent open with small pool: %v", err)
	}
	db.Close()
}

// TestConcurrentRefusesNoShadow pins that the one path overwriting
// committed leaf bytes in place is a configuration error on a Concurrent
// database, whose reads copy committed bytes outside the locks; the paper
// profile keeps the ablation.
func TestConcurrentRefusesNoShadow(t *testing.T) {
	db, err := lobstore.Open(concurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.NewESMOpts(lobstore.ESMOptions{LeafPages: 4, NoShadow: true}); !errors.Is(err, lobstore.ErrConfig) {
		t.Fatalf("NoShadow on a Concurrent database: got %v, want an ErrConfig-wrapped error", err)
	}
	off := openDB(t)
	defer off.Close()
	if _, err := off.NewESMOpts(lobstore.ESMOptions{LeafPages: 4, NoShadow: true}); err != nil {
		t.Fatalf("NoShadow in the paper profile: %v", err)
	}
}

// TestConcurrentStatsCountPinnedReads: a Concurrent read copies its bytes
// from the volume outside the simulated disk, and Stats still counts that
// read — one call over the one page a 4 KB page-aligned read touches.
func TestConcurrentStatsCountPinnedReads(t *testing.T) {
	db, err := lobstore.Open(concurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	obj, err := db.Create("o", lobstore.ObjectSpec{Engine: "eos", Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	io, err := db.Measure(func() error { return obj.Read(8<<10, make([]byte, 4<<10)) })
	if err != nil {
		t.Fatal(err)
	}
	if io.ReadCalls != 1 || io.PagesRead != 1 {
		t.Fatalf("a warm 4 KB read counted %d read calls over %d pages, want 1 over 1", io.ReadCalls, io.PagesRead)
	}
}

// TestSnapshotRequiresConcurrent pins the off-mode contract: the default
// configuration carries no engine, so the concurrent-only API refuses.
func TestSnapshotRequiresConcurrent(t *testing.T) {
	db := openDB(t)
	defer db.Close()
	if _, err := db.Create("o", lobstore.ObjectSpec{Engine: "esm", LeafPages: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot("o"); err == nil {
		t.Fatal("Snapshot succeeded without Config.Concurrent")
	}
}

// TestCrashRequiresOffMode pins the other side of the same contract: the
// simulated crash is the single-threaded profile's tool. On a Concurrent
// database it would hand back a copy with Config().Concurrent set but no
// engine, sharing a disk that still carries the original's engine hooks.
func TestCrashRequiresOffMode(t *testing.T) {
	db, err := lobstore.Open(concurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Crash(); !errors.Is(err, lobstore.ErrConfig) {
		t.Fatalf("Crash on a Concurrent database: got %v, want an ErrConfig-wrapped error", err)
	}
}

// TestConcurrentFacade drives the public DB surface from many goroutines:
// writers mutate named objects of all three engines through their
// handles, snapshot readers freeze and verify images, a record-file client
// inserts and reads records with long fields, and observers call
// Now/Stats/Metrics/PoolHitRate the whole time. The test is the facade's
// -race coverage; correctness of snapshot isolation itself is hammered in
// internal/engine.
func TestConcurrentFacade(t *testing.T) {
	db, err := lobstore.Open(concurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.EnableMetrics(nil)

	specs := map[string]lobstore.ObjectSpec{
		"e": {Engine: "esm", LeafPages: 4},
		"s": {Engine: "starburst"},
		"o": {Engine: "eos", Threshold: 4},
	}
	objs := map[string]lobstore.Object{}
	for name, spec := range specs {
		obj, err := db.Create(name, spec)
		if err != nil {
			t.Fatal(err)
		}
		objs[name] = obj
	}

	const ops = 15
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(specs)+2)

	// Record-file client: every RecordFile method and every long field
	// must go through the engine like the named objects beside it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := recordClient(db, ops); err != nil {
			errs <- fmt.Errorf("record file: %w", err)
		}
	}()

	for name, obj := range objs {
		name, obj := name, obj
		// One writer per object: append then read back.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				data := bytes.Repeat([]byte{byte('a' + i)}, 1500)
				if err := obj.Append(data); err != nil {
					errs <- fmt.Errorf("append %s: %w", name, err)
					return
				}
				buf := make([]byte, len(data))
				if err := obj.Read(obj.Size()-int64(len(data)), buf); err != nil {
					errs <- fmt.Errorf("read-back %s: %w", name, err)
					return
				}
				if !bytes.Equal(buf, data) {
					errs <- fmt.Errorf("read-back %s: tail differs from just-appended bytes", name)
					return
				}
			}
		}()
		// One snapshot reader per object.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				sn, err := db.Snapshot(name)
				if err != nil {
					errs <- fmt.Errorf("snapshot %s: %w", name, err)
					return
				}
				size, err := sn.Size()
				if err == nil && size > 0 {
					buf := make([]byte, size)
					err = sn.Read(0, buf)
				}
				if cerr := sn.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs <- fmt.Errorf("snapshot read %s: %w", name, err)
					return
				}
			}
		}()
	}

	// Observers: the read-only accessors must be safe while ops fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4*ops; i++ {
			_ = db.Now()
			_ = db.Stats()
			db.PoolHitRate()
			if db.Metrics() == nil {
				errs <- fmt.Errorf("metrics registry vanished mid-flight")
				return
			}
			if _, err := db.Objects(); err != nil {
				errs <- fmt.Errorf("objects listing: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for name, obj := range objs {
		want := int64(ops * 1500)
		if got := obj.Size(); got != want {
			t.Fatalf("object %s: size %d after the dust settled, want %d", name, got, want)
		}
	}
	if n := db.Metrics().Counter("engine.lock.acquires"); n == 0 {
		t.Fatal("engine.lock.acquires never bumped in concurrent mode")
	}
	if n := db.Metrics().Counter("engine.snapshot.opens"); n == 0 {
		t.Fatal("engine.snapshot.opens never bumped in concurrent mode")
	}
}

// recordClient creates a record file and n records, each with a long field
// per engine in turn, reading every record and its long field back.
func recordClient(db *lobstore.DB, n int) error {
	rf, err := db.CreateRecordFile("people")
	if err != nil {
		return err
	}
	if rf, err = db.OpenRecordFile("people"); err != nil {
		return err
	}
	engines := []string{"esm", "starburst", "eos"}
	for i := 0; i < n; i++ {
		want := bytes.Repeat([]byte{byte(i)}, 3000)
		lf, ref, err := rf.NewLongField(lobstore.ObjectSpec{Engine: engines[i%3], LeafPages: 2, Threshold: 2})
		if err != nil {
			return err
		}
		if err := lf.Append(want); err != nil {
			return err
		}
		rid, err := rf.Insert([]lobstore.Field{lobstore.ShortField([]byte{byte(i)}), {Long: &ref}})
		if err != nil {
			return err
		}
		fields, err := rf.Read(rid)
		if err != nil {
			return err
		}
		if lf, err = rf.OpenLongField(*fields[1].Long); err != nil {
			return err
		}
		got := make([]byte, lf.Size())
		if err := lf.Read(0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("record %d: long field differs from what was appended", i)
		}
		if i%2 == 1 {
			if err := rf.DestroyLongField(ref); err != nil {
				return err
			}
			if err := rf.Delete(rid); err != nil {
				return err
			}
		}
	}
	return nil
}
