package esm

import (
	"errors"
	"testing"

	"lobstore/internal/core"
	"lobstore/internal/lobtest"
	"lobstore/internal/store"
)

func newObject(t *testing.T, leafPages int) (*Object, *store.Store) {
	t.Helper()
	st := lobtest.NewStore(t, lobtest.TestParams())
	o, err := New(st, Config{LeafPages: leafPages})
	if err != nil {
		t.Fatal(err)
	}
	return o, st
}

func harness(t *testing.T, leafPages int, seed int64) *Harness {
	t.Helper()
	o, st := newObject(t, leafPages)
	h := lobtest.New(t, o, seed)
	h.Check = o.CheckInvariants
	return &Harness{h, o, st}
}

// leafSizes returns the useful byte count of every leaf in object order.
func leafSizes(o *Object) ([]int64, error) {
	l, err := o.Layout()
	sizes := make([]int64, len(l.Segments))
	for i, s := range l.Segments {
		sizes[i] = s.Bytes
	}
	return sizes, err
}

// Harness bundles the generic model harness with the concrete object.
type Harness struct {
	*lobtest.Harness
	Obj *Object
	St  *store.Store
}

func TestConfigValidation(t *testing.T) {
	st := lobtest.NewStore(t, lobtest.TestParams())
	if _, err := New(st, Config{LeafPages: 0}); err == nil {
		t.Error("zero leaf pages accepted")
	}
	if _, err := New(st, Config{LeafPages: 1 << 20}); err == nil {
		t.Error("oversize leaf accepted")
	}
}

func TestAppendAndReadSmall(t *testing.T) {
	h := harness(t, 4, 1)
	h.Append(100)
	h.FullCheck()
	h.Append(5000)
	h.FullCheck()
	h.Append(100000)
	h.FullCheck()
}

func TestAppendExactLeafMultiples(t *testing.T) {
	h := harness(t, 1, 2)
	// Appends of exactly one leaf capacity: the rightmost leaf is always
	// full, so no redistribution ever happens and every leaf stays full.
	for i := 0; i < 20; i++ {
		h.Append(4096)
	}
	h.FullCheck()
	sizes, err := leafSizes(h.Obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 20 {
		t.Fatalf("%d leaves, want 20", len(sizes))
	}
	for i, s := range sizes {
		if s != 4096 {
			t.Fatalf("leaf %d holds %d bytes, want 4096", i, s)
		}
	}
	if u := h.Obj.Utilization(); u.Ratio() < 0.95 {
		t.Fatalf("utilization %.2f after matched appends", u.Ratio())
	}
}

func TestAppendMismatchedSizes(t *testing.T) {
	h := harness(t, 1, 3)
	// 5000-byte appends onto 4096-byte leaves force constant reshuffling;
	// content must nevertheless stay correct and leaves at least half full.
	for i := 0; i < 30; i++ {
		h.Append(5000)
	}
	h.FullCheck()
}

func TestAppendUsesLeftNeighbourPour(t *testing.T) {
	h := harness(t, 4, 4)
	// Build several leaves, leaving the rightmost partially full, then
	// append enough to trigger the pour-into-left-neighbour path
	// (neighbour below capacity and total > 2 leaves).
	h.Append(16384) // one full leaf
	h.Append(10000) // leaves a partial rightmost
	h.Append(60000) // big overflow
	h.FullCheck()
}

func TestInsertWithinLeaf(t *testing.T) {
	h := harness(t, 4, 5)
	h.Append(1000)
	h.Insert(500, 200)
	h.Insert(0, 50)
	h.Insert(int64(len(h.Mirror)), 70) // == append
	h.FullCheck()
}

func TestInsertOverflowImproved(t *testing.T) {
	h := harness(t, 1, 6)
	h.Append(8192) // two full 1-page leaves
	// Inserting into a full leaf overflows; the improved algorithm must
	// redistribute with a neighbour instead of creating a third leaf when
	// the bytes fit in two.
	before, err := leafSizes(h.Obj)
	if err != nil {
		t.Fatal(err)
	}
	h.Delete(0, 2000) // make room: leaves no longer full
	h.Insert(100, 500)
	h.FullCheck()
	after, err := leafSizes(h.Obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) > len(before) {
		t.Fatalf("improved insert grew leaf count %d → %d although bytes fit", len(before), len(after))
	}
}

func TestInsertOverflowBasicVsImprovedLeafCount(t *testing.T) {
	// The improved algorithm's whole point: fewer leaves (better
	// utilization) for the same inserts.
	run := func(alg Algorithm) int {
		st := lobtest.NewStore(t, lobtest.TestParams())
		o, err := New(st, Config{LeafPages: 1, Insert: alg})
		if err != nil {
			t.Fatal(err)
		}
		h := lobtest.New(t, o, 7)
		h.Check = o.CheckInvariants
		h.Append(40960) // ten full leaves
		for i := 0; i < 30; i++ {
			h.Insert(int64((i*997)%len(h.Mirror)), 300)
		}
		h.FullCheck()
		sizes, err := leafSizes(o)
		if err != nil {
			t.Fatal(err)
		}
		return len(sizes)
	}
	improved := run(Improved)
	basic := run(Basic)
	if improved > basic {
		t.Fatalf("improved created more leaves (%d) than basic (%d)", improved, basic)
	}
}

func TestDeleteWholeMiddleLeaves(t *testing.T) {
	h := harness(t, 1, 8)
	h.Append(40960)
	h.Delete(4096, 3*4096) // exactly three whole leaves
	h.FullCheck()
	h.Delete(0, 4096)
	h.FullCheck()
}

func TestDeleteWithinLeafAndSeams(t *testing.T) {
	h := harness(t, 4, 9)
	h.Append(100000)
	h.Delete(50, 20)                      // interior of first leaf
	h.Delete(30000, 5000)                 // spans leaves
	h.Delete(0, 10)                       // head
	h.Delete(int64(len(h.Mirror)-10), 10) // tail
	h.FullCheck()
}

func TestDeleteEverything(t *testing.T) {
	h := harness(t, 4, 10)
	h.Append(50000)
	h.Delete(0, int64(len(h.Mirror)))
	h.FullCheck()
	if h.Obj.Size() != 0 {
		t.Fatalf("size %d after deleting all", h.Obj.Size())
	}
	// Object must be reusable after being emptied.
	h.Append(1234)
	h.FullCheck()
}

func TestReplaceRanges(t *testing.T) {
	h := harness(t, 4, 11)
	h.Append(80000)
	h.Replace(0, 100)
	h.Replace(40000, 20000)
	h.Replace(int64(len(h.Mirror)-5), 5)
	h.FullCheck()
}

func TestRangeErrors(t *testing.T) {
	o, _ := newObject(t, 4)
	if err := o.Append(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Read(500, make([]byte, 1000)); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := o.Delete(-1, 10); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("negative delete: %v", err)
	}
	if err := o.Insert(2000, []byte{1}); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("insert past end: %v", err)
	}
	if err := o.Replace(999, []byte{1, 2}); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("replace past end: %v", err)
	}
	// Zero-length operations are no-ops.
	if err := o.Insert(0, nil); err != nil {
		t.Errorf("empty insert: %v", err)
	}
	if err := o.Delete(0, 0); err != nil {
		t.Errorf("empty delete: %v", err)
	}
}

func TestDestroyReleasesAllSpace(t *testing.T) {
	o, st := newObject(t, 4)
	h := lobtest.New(t, o, 12)
	h.Append(100000)
	h.Insert(5000, 3000)
	h.Delete(200, 100)
	if st.Leaf.UsedBlocks() == 0 {
		t.Fatal("no leaf blocks in use")
	}
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
	if used := st.Leaf.UsedBlocks(); used != 0 {
		t.Fatalf("%d leaf blocks leaked", used)
	}
	if used := st.Meta.UsedBlocks(); used != 0 {
		t.Fatalf("%d meta pages leaked", used)
	}
}

func TestRandomizedSmallLeaves(t *testing.T) {
	h := harness(t, 1, 13)
	h.RandomOps(400, 9000)
}

func TestRandomizedMediumLeaves(t *testing.T) {
	h := harness(t, 4, 14)
	h.RandomOps(400, 30000)
}

func TestRandomizedLargeLeaves(t *testing.T) {
	h := harness(t, 16, 15)
	h.RandomOps(250, 120000)
}

func TestRandomizedBasicAlgorithm(t *testing.T) {
	st := lobtest.NewStore(t, lobtest.TestParams())
	o, err := New(st, Config{LeafPages: 2, Insert: Basic})
	if err != nil {
		t.Fatal(err)
	}
	h := lobtest.New(t, o, 16)
	h.Check = o.CheckInvariants
	h.RandomOps(300, 20000)
}

// Utilization must start near 100% after a pure build.
func TestUtilizationAfterBuild(t *testing.T) {
	for _, leaf := range []int{1, 4, 16} {
		o, _ := newObject(t, leaf)
		h := lobtest.New(t, o, 17)
		for i := 0; i < 20; i++ {
			h.Append(leaf * 4096)
		}
		if u := o.Utilization(); u.Ratio() < 0.9 {
			t.Errorf("leaf=%d: post-build utilization %.2f", leaf, u.Ratio())
		}
	}
}

// TestMutationAllocBudget pins what a warmed insert or delete allocates:
// the leaf copies of a shadow update, a split or a seam merge come from
// the store's per-operation arena, not the heap.
func TestMutationAllocBudget(t *testing.T) {
	lobtest.CheckMutationAllocBudget(t, func(st *store.Store) (core.Object, error) {
		return New(st, Config{LeafPages: 4})
	}, 2000, 3000)
}
