package lobtest_test

import (
	"errors"
	"testing"

	"lobstore/internal/core"
	"lobstore/internal/eos"
	"lobstore/internal/esm"
	"lobstore/internal/lobtest"
	"lobstore/internal/starburst"
	"lobstore/internal/store"
)

var errInjected = errors.New("injected disk fault")

// sweepFaults runs op against fresh objects while injecting a disk fault
// at every successive I/O position until the operation completes cleanly.
// Each run must either succeed or surface the injected error — never panic,
// never mis-report success, and never leak a buffer pin: whether the
// operation completes or unwinds on the fault, every page it fixed must be
// unfixed again (the dynamic twin of the lobvet fixunfix analyzer).
func sweepFaults(t *testing.T, name string, build func(st *store.Store) (core.Object, error),
	op func(obj core.Object) error) {
	t.Helper()
	params := lobtest.TestParams()
	for failAt := int64(0); failAt < 400; failAt++ {
		st := lobtest.NewStore(t, params)
		obj, err := build(st)
		if err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		if n := st.Pool.PinnedPages(); n != 0 {
			t.Fatalf("%s: %d pages left pinned after setup", name, n)
		}
		st.Disk.FailAfter(failAt, errInjected)
		err = func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panic with fault at I/O %d: %v", name, failAt, r)
				}
			}()
			return op(obj)
		}()
		st.Disk.FailAfter(-1, nil)
		if n := st.Pool.PinnedPages(); n != 0 {
			t.Fatalf("%s: %d pages left pinned after fault at I/O %d (err=%v)",
				name, n, failAt, err)
		}
		if err == nil {
			return // fault position beyond the op's I/O count: done
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("%s: fault at I/O %d surfaced wrong error: %v",
				name, failAt, err)
		}
	}
	t.Fatalf("%s: operation never completed within the fault sweep", name)
}

func buildPayload(obj core.Object, n int) error {
	return obj.Append(make([]byte, n))
}

func TestFaultSweepESM(t *testing.T) {
	sweepFaults(t, "esm-insert",
		func(st *store.Store) (core.Object, error) {
			o, err := esm.New(st, esm.Config{LeafPages: 4})
			if err != nil {
				return nil, err
			}
			return o, buildPayload(o, 200_000)
		},
		func(obj core.Object) error { return obj.Insert(50_000, make([]byte, 30_000)) })

	sweepFaults(t, "esm-delete",
		func(st *store.Store) (core.Object, error) {
			o, err := esm.New(st, esm.Config{LeafPages: 4})
			if err != nil {
				return nil, err
			}
			return o, buildPayload(o, 200_000)
		},
		func(obj core.Object) error { return obj.Delete(10_000, 50_000) })
}

func TestFaultSweepEOS(t *testing.T) {
	sweepFaults(t, "eos-insert",
		func(st *store.Store) (core.Object, error) {
			o, err := eos.New(st, eos.Config{Threshold: 8})
			if err != nil {
				return nil, err
			}
			return o, buildPayload(o, 200_000)
		},
		func(obj core.Object) error { return obj.Insert(50_000, make([]byte, 10_000)) })

	sweepFaults(t, "eos-append",
		func(st *store.Store) (core.Object, error) {
			o, err := eos.New(st, eos.Config{Threshold: 4})
			if err != nil {
				return nil, err
			}
			return o, buildPayload(o, 100_000)
		},
		func(obj core.Object) error { return obj.Append(make([]byte, 50_000)) })
}

func TestFaultSweepStarburst(t *testing.T) {
	sweepFaults(t, "starburst-insert",
		func(st *store.Store) (core.Object, error) {
			o, err := starburst.New(st, starburst.Config{MaxSegmentPages: 16})
			if err != nil {
				return nil, err
			}
			return o, buildPayload(o, 200_000)
		},
		func(obj core.Object) error { return obj.Insert(50_000, make([]byte, 5_000)) })

	sweepFaults(t, "starburst-read",
		func(st *store.Store) (core.Object, error) {
			o, err := starburst.New(st, starburst.Config{MaxSegmentPages: 16})
			if err != nil {
				return nil, err
			}
			return o, buildPayload(o, 200_000)
		},
		func(obj core.Object) error { return obj.Read(1_000, make([]byte, 100_000)) })
}
