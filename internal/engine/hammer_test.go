package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/eos"
	"lobstore/internal/esm"
	"lobstore/internal/starburst"
	"lobstore/internal/store"
)

// rooted is what every manager's New returns.
type rooted interface {
	core.Object
	Root() disk.Addr
}

type managerCase struct {
	name string
	new  func(st *store.Store) (rooted, error)
	open Opener
}

// make creates the case's object the way the facade's createManaged does:
// its root is written through at creation, so the volume holds the
// committed image OpenSnapshot freezes from the start.
func (mc managerCase) make(st *store.Store) (core.Object, disk.Addr, error) {
	o, err := mc.new(st)
	if err != nil {
		return nil, disk.Addr{}, err
	}
	return o, o.Root(), st.Pool.FlushPage(o.Root())
}

var managerCases = []managerCase{
	{
		name: "esm",
		new:  func(st *store.Store) (rooted, error) { return esm.New(st, esm.Config{LeafPages: 4}) },
		open: func(st *store.Store, root disk.Addr) (core.Object, error) { return esm.Open(st, root) },
	},
	{
		name: "starburst",
		new:  func(st *store.Store) (rooted, error) { return starburst.New(st, starburst.Config{}) },
		open: func(st *store.Store, root disk.Addr) (core.Object, error) { return starburst.Open(st, root) },
	},
	{
		name: "eos",
		new:  func(st *store.Store) (rooted, error) { return eos.New(st, eos.Config{Threshold: 4}) },
		open: func(st *store.Store, root disk.Addr) (core.Object, error) { return eos.Open(st, root) },
	},
}

// TestSnapshotIsolationHammer interleaves writer goroutines doing
// append/insert/delete with snapshot readers, for each of the three
// managers. Every reader must observe a byte-exact committed image — some
// operation's pre- or post-state, never a torn mixture — and the engine
// must drain completely afterwards.
func TestSnapshotIsolationHammer(t *testing.T) {
	for _, mc := range managerCases {
		mc := mc
		t.Run(mc.name, func(t *testing.T) { hammer(t, mc) })
	}
}

func hammer(t *testing.T, mc managerCase) {
	const (
		writers = 3
		readers = 3
		ops     = 20
		maxSize = 64 << 10
	)
	e := newEngine(t, 128)

	var (
		obj  core.Object
		root disk.Addr
	)
	if err := e.Run(func() error {
		var err error
		obj, root, err = mc.make(e.st)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// images collects every committed state, captured atomically with the
	// mutation that produced it (same object lock hold). A snapshot can
	// only freeze a commit point, so every reader observation must appear
	// here.
	var (
		imgmu  sync.Mutex
		images = map[string]bool{}
	)
	record := func() error {
		size := obj.Size()
		buf := make([]byte, size)
		if size > 0 {
			if err := obj.Read(0, buf); err != nil {
				return err
			}
		}
		imgmu.Lock()
		images[string(buf)] = true
		imgmu.Unlock()
		return nil
	}
	if err := e.Do(root, record); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := id*ops + i
				fill := bytes.Repeat([]byte{byte('a' + k%26)}, 700+(k%5)*300)
				err := e.Do(root, func() error {
					size := obj.Size()
					var err error
					switch {
					case size > maxSize:
						err = obj.Delete(size/4, size/2)
					case k%3 == 1 && size > 64:
						err = obj.Insert(size/2, fill)
					case k%5 == 4 && size > 1024:
						err = obj.Delete(size/3, size/5)
					default:
						err = obj.Append(fill)
					}
					if err != nil {
						return err
					}
					if err := leafAccounted(e, obj); err != nil {
						return err
					}
					if err := rootCommitted(e, root); err != nil {
						return err
					}
					return record()
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	var (
		obsmu    sync.Mutex
		observed []string
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				sn, err := e.OpenSnapshot(root, mc.open)
				if err != nil {
					errs <- err
					return
				}
				size, err := sn.Size()
				if err != nil {
					errs <- err
					return
				}
				b1 := make([]byte, size)
				b2 := make([]byte, size)
				if size > 0 {
					if err := sn.Read(0, b1); err != nil {
						errs <- err
						return
					}
					if err := sn.Read(0, b2); err != nil {
						errs <- err
						return
					}
				}
				if !bytes.Equal(b1, b2) {
					errs <- errTorn(sn.Root())
					return
				}
				obsmu.Lock()
				observed = append(observed, string(b1))
				obsmu.Unlock()
				if err := sn.Close(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, ob := range observed {
		if !images[ob] {
			t.Fatalf("reader observation %d (%d bytes) matches no committed image: snapshot saw a torn or uncommitted state", i, len(ob))
		}
	}

	// Drain assertions: no pinned stripe pages, no open snapshots, no
	// epoch pins, nothing left unreclaimed.
	if n := e.PinnedStripePages(); n != 0 {
		t.Fatalf("pin leak: %d stripe pages still pinned", n)
	}
	st := e.Stats()
	if st.OpenSnapshots != 0 || st.ActivePins != 0 || st.PendingBatches != 0 {
		t.Fatalf("engine not drained: %+v", st)
	}

	// The live object must still be fully intact.
	if err := e.Do(root, func() error {
		size := obj.Size()
		buf := make([]byte, size)
		if size > 0 {
			return obj.Read(0, buf)
		}
		return nil
	}); err != nil {
		t.Fatalf("final read of live object: %v", err)
	}
}

// leafAccounted checks that every allocated leaf page belongs to the live
// object or to a retired batch still held back for a snapshot reader, so
// a run that ends in "area full" has run out of space, not leaked it.
// Callers hold storemu.
func leafAccounted(e *Engine, obj core.Object) error {
	var held int64
	e.epochs.epochmu.Lock()
	for _, b := range e.epochs.batches {
		for _, seg := range b.leaf {
			held += int64(seg.Pages)
		}
	}
	e.epochs.epochmu.Unlock()
	used, live := e.st.Leaf.UsedBlocks(), obj.Utilization().DataPages
	if used != live+held {
		return fmt.Errorf("leaf pages: %d allocated, %d live + %d retired", used, live, held)
	}
	return nil
}

// rootCommitted checks the invariant OpenSnapshot's freeze rests on: once
// a mutation has committed, a resident pool copy of the root is the image
// the volume holds, so freezing from the volume alone loses nothing.
// Callers hold storemu.
func rootCommitted(e *Engine, root disk.Addr) error {
	if !e.st.Pool.Contains(root) {
		return nil
	}
	h, err := e.st.Pool.FixPage(root)
	if err != nil {
		return err
	}
	pooled := bytes.Clone(h.Data)
	h.Unfix(false)
	onVolume := make([]byte, e.st.PageSize())
	if err := e.st.Disk.Peek(root, 1, onVolume); err != nil {
		return err
	}
	if !bytes.Equal(pooled, onVolume) {
		return fmt.Errorf("root %v: the pool copy differs from the volume's after a committed mutation", root)
	}
	return nil
}

type errTorn disk.Addr

func (e errTorn) Error() string {
	return "torn snapshot read: two reads of one frozen image differ at root " + disk.Addr(e).String()
}

// TestSnapshotPreImageWhileWriterCommits is the deterministic core of the
// hammer: a snapshot opened before a mutation keeps serving the exact
// pre-image while the live object moves on.
func TestSnapshotPreImageWhileWriterCommits(t *testing.T) {
	for _, mc := range managerCases {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			e := newEngine(t, 64)
			var (
				obj  core.Object
				root disk.Addr
			)
			if err := e.Run(func() error {
				var err error
				obj, root, err = mc.make(e.st)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			before := bytes.Repeat([]byte{'x'}, 9000)
			if err := e.Do(root, func() error { return obj.Append(before) }); err != nil {
				t.Fatal(err)
			}

			sn, err := e.OpenSnapshot(root, mc.open)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Do(root, func() error {
				if err := obj.Insert(4000, bytes.Repeat([]byte{'y'}, 5000)); err != nil {
					return err
				}
				return obj.Delete(0, 1000)
			}); err != nil {
				t.Fatal(err)
			}

			size, err := sn.Size()
			if err != nil {
				t.Fatal(err)
			}
			if size != int64(len(before)) {
				t.Fatalf("snapshot size %d, want frozen pre-image size %d", size, len(before))
			}
			got := make([]byte, size)
			if err := sn.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, before) {
				t.Fatal("snapshot bytes diverged from the pre-image")
			}

			var liveSize int64
			if err := e.Do(root, func() error { liveSize = obj.Size(); return nil }); err != nil {
				t.Fatal(err)
			}
			if want := int64(len(before) + 5000 - 1000); liveSize != want {
				t.Fatalf("live size %d, want %d", liveSize, want)
			}

			if err := sn.Close(); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.OpenSnapshots != 0 || st.ActivePins != 0 || st.PendingBatches != 0 {
				t.Fatalf("engine not drained after snapshot close: %+v", st)
			}
		})
	}
}
