package starburst

import (
	"errors"
	"testing"

	"lobstore/internal/core"
	"lobstore/internal/lobtest"
	"lobstore/internal/store"
)

func newObject(t *testing.T, cfg Config) (*Object, *store.Store) {
	t.Helper()
	st := lobtest.NewStore(t, lobtest.TestParams())
	o, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, st
}

func harness(t *testing.T, cfg Config, seed int64) (*lobtest.Harness, *Object, *store.Store) {
	t.Helper()
	o, st := newObject(t, cfg)
	h := lobtest.New(t, o, seed)
	h.Check = o.CheckInvariants
	return h, o, st
}

// segmentSizes returns the (allocated pages, useful bytes) of every
// segment.
func segmentSizes(t *testing.T, o *Object) [][2]int64 {
	t.Helper()
	l, err := o.Layout()
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([][2]int64, len(l.Segments))
	for i, s := range l.Segments {
		sizes[i] = [2]int64{int64(s.Pages), s.Bytes}
	}
	return sizes
}

func TestConfigValidation(t *testing.T) {
	st := lobtest.NewStore(t, lobtest.TestParams())
	if _, err := New(st, Config{MaxSegmentPages: -1}); err == nil {
		t.Error("negative max segment accepted")
	}
	if _, err := New(st, Config{MaxSegmentPages: 1 << 20}); err == nil {
		t.Error("max segment beyond allocator accepted")
	}
	if _, err := New(st, Config{CopyBufferBytes: 100}); err == nil {
		t.Error("non-page-multiple copy buffer accepted")
	}
	if _, err := New(st, Config{KnownSize: -1}); err == nil {
		t.Error("negative known size accepted")
	}
}

// TestDoublingGrowthPattern reproduces the paper's Figure 2 example shape:
// segments double in size until the maximum.
func TestDoublingGrowthPattern(t *testing.T) {
	h, o, _ := harness(t, Config{MaxSegmentPages: 8}, 1)
	// Append one page at a time; allocations must go 1,2,4,8,8,8 pages.
	for i := 0; i < 24; i++ {
		h.Append(4096)
	}
	h.FullCheck()
	var gotPages []int64
	for _, s := range segmentSizes(t, o) {
		gotPages = append(gotPages, s[0])
	}
	want := []int64{1, 2, 4, 8, 8, 8}
	if len(gotPages) != len(want) {
		t.Fatalf("segments %v, want %v", gotPages, want)
	}
	for i := range want {
		if gotPages[i] != want[i] {
			t.Fatalf("segments %v, want %v", gotPages, want)
		}
	}
}

// TestPaperFigure2Example: a 1830-"byte" field built as in Figure 2 has
// segments 100,200,400,800,330 (scaled here to pages via 4K-byte units).
func TestTrimOnClose(t *testing.T) {
	h, o, st := harness(t, Config{MaxSegmentPages: 64}, 2)
	h.Append(7 * 4096) // segments 1,2,4 pages; last partially used (7 = 1+2+4 exactly full)
	h.Append(300)      // grows into an 8-page segment holding 300 bytes
	used := st.Leaf.UsedBlocks()
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if freed := used - st.Leaf.UsedBlocks(); freed != 7 {
		t.Fatalf("close trimmed %d pages, want 7", freed)
	}
	h.FullCheck()
	// Appending after a trim regrows cleanly.
	h.Append(10000)
	h.FullCheck()
}

func TestKnownSizeUsesMaximalSegments(t *testing.T) {
	h, o, _ := harness(t, Config{MaxSegmentPages: 16, KnownSize: 200000}, 3)
	h.Append(200000)
	h.FullCheck()
	sizes := segmentSizes(t, o)
	for i, s := range sizes {
		if i < len(sizes)-1 && s[0] != 16 {
			t.Fatalf("segment %d has %d pages, want maximal 16", i, s[0])
		}
	}
}

func TestReadAcrossSegments(t *testing.T) {
	h, _, _ := harness(t, Config{MaxSegmentPages: 4}, 4)
	h.Append(100000)
	h.ReadCheck(0, 100)
	h.ReadCheck(4095, 2)      // page boundary
	h.ReadCheck(4096*3-5, 10) // segment boundary (1+2 pages = 3 pages)
	h.ReadCheck(0, 100000)
	h.FullCheck()
}

func TestInsertReorganizesTail(t *testing.T) {
	h, o, _ := harness(t, Config{MaxSegmentPages: 8}, 5)
	h.Append(60000)
	h.Insert(10000, 5000)
	h.FullCheck()
	// After the reorganisation everything from the insertion point onward
	// lives in maximal segments.
	sizes := segmentSizes(t, o)
	last := len(sizes) - 1
	for i, s := range sizes {
		full := s[0]*4096 == s[1]
		if i < last && !full {
			t.Fatalf("segment %d partial after reorganisation: %v", i, s)
		}
	}
}

func TestInsertAtFrontAndEnd(t *testing.T) {
	h, _, _ := harness(t, Config{MaxSegmentPages: 8}, 6)
	h.Append(30000)
	h.Insert(0, 1000)
	h.Insert(int64(len(h.Mirror)), 1000) // == append
	h.FullCheck()
}

func TestDeleteRanges(t *testing.T) {
	h, _, _ := harness(t, Config{MaxSegmentPages: 8}, 7)
	h.Append(80000)
	h.Delete(0, 1000)
	h.Delete(40000, 10000)
	h.Delete(int64(len(h.Mirror))-500, 500)
	h.FullCheck()
	h.Delete(0, int64(len(h.Mirror)))
	h.FullCheck()
	if h.Obj.Size() != 0 {
		t.Fatal("size nonzero after deleting everything")
	}
	h.Append(5000)
	h.FullCheck()
}

func TestReplaceShadowsOnlyAffectedSegments(t *testing.T) {
	h, o, _ := harness(t, Config{MaxSegmentPages: 4}, 8)
	h.Append(100000)
	before := segmentSizes(t, o)
	h.Replace(20000, 3000)
	h.FullCheck()
	after := segmentSizes(t, o)
	if len(before) != len(after) {
		t.Fatalf("replace changed segment count %d → %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			// sizes (pages,bytes) must be identical; only locations change
			t.Fatalf("replace changed segment %d shape %v → %v", i, before[i], after[i])
		}
	}
}

// TestUtilizationNearPerfect: Starburst achieves, unconditionally, the best
// possible storage utilization after updates (§4.4.1).
func TestUtilizationNearPerfect(t *testing.T) {
	h, o, _ := harness(t, Config{MaxSegmentPages: 16}, 9)
	h.Append(200000)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Insert(int64((i*13777)%len(h.Mirror)), 500)
		h.Delete(int64((i*9973)%(len(h.Mirror)-600)), 500)
	}
	h.FullCheck()
	// Only the final page of the field and the descriptor page can hold
	// free space.
	if u := o.Utilization(); u.Ratio() < 0.96 {
		t.Fatalf("utilization %.3f, want ≥ 0.96", u.Ratio())
	}
	u := o.Utilization()
	ps := int64(4096)
	minPages := (u.ObjectBytes + ps - 1) / ps
	if u.DataPages != minPages {
		t.Fatalf("data pages %d, minimum possible %d", u.DataPages, minPages)
	}
}

func TestRangeErrors(t *testing.T) {
	o, _ := newObject(t, Config{})
	if err := o.Append(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Read(500, make([]byte, 1000)); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := o.Insert(1001, []byte{1}); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("insert past end: %v", err)
	}
	if err := o.Delete(900, 200); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("delete past end: %v", err)
	}
	if err := o.Replace(-1, []byte{1}); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("negative replace: %v", err)
	}
}

func TestDestroyReleasesAllSpace(t *testing.T) {
	o, st := newObject(t, Config{MaxSegmentPages: 8})
	h := lobtest.New(t, o, 10)
	h.Append(100000)
	h.Insert(500, 100)
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
	if st.Leaf.UsedBlocks() != 0 || st.Meta.UsedBlocks() != 0 {
		t.Fatalf("leaked blocks: leaf=%d meta=%d", st.Leaf.UsedBlocks(), st.Meta.UsedBlocks())
	}
}

func TestRandomizedOps(t *testing.T) {
	h, _, _ := harness(t, Config{MaxSegmentPages: 8}, 11)
	h.RandomOps(250, 20000)
}

func TestRandomizedSmallBuffer(t *testing.T) {
	// A staging buffer of one page exercises chunked reorganisation hard.
	h, _, _ := harness(t, Config{MaxSegmentPages: 4, CopyBufferBytes: 4096}, 12)
	h.RandomOps(150, 30000)
}

// TestUpdateCostGrowsWithTail verifies the paper's core Starburst finding:
// insert cost is dominated by copying everything right of the start byte.
// The max segment is kept small so the object spans many segments;
// otherwise a single reorganised segment holds the whole object and every
// insert copies everything (the effect behind Table 3's flat 22.3 s).
func TestUpdateCostGrowsWithTail(t *testing.T) {
	costAt := func(frac float64) int64 {
		h, o, st := harness(t, Config{MaxSegmentPages: 32}, 13)
		h.Append(1 << 20) // 1 MB
		off := int64(float64(o.Size()) * frac)
		stats, err := st.MeasureOp(func() error { return o.Insert(off, []byte{1, 2, 3}) })
		if err != nil {
			t.Fatal(err)
		}
		return stats.Pages()
	}
	early := costAt(0.01) // copies ~1 MB
	late := costAt(0.95)  // copies only the last segments
	if early < 3*late {
		t.Fatalf("front insert moved %d pages, tail insert %d — expected tail-dominated cost", early, late)
	}
}

// TestMutationAllocBudget pins what a warmed insert or delete allocates:
// the §3.5 staging buffer comes from the store's per-operation arena, not
// a fresh 512 KB heap buffer per reorganisation.
func TestMutationAllocBudget(t *testing.T) {
	lobtest.CheckMutationAllocBudget(t, func(st *store.Store) (core.Object, error) {
		return New(st, Config{})
	}, 200, 300)
}
