package eos

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

// segmentSizes returns (pages, bytes) of each segment in object order.
func segmentSizes(o *Object) ([][2]int64, error) {
	l, err := o.Layout()
	sizes := make([][2]int64, len(l.Segments))
	for i, s := range l.Segments {
		sizes[i] = [2]int64{int64(s.Pages), s.Bytes}
	}
	return sizes, err
}

func TestConfigValidation(t *testing.T) {
	st := lobtest.NewStore(t, lobtest.TestParams())
	if _, err := New(st, Config{Threshold: 0}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := New(st, Config{Threshold: 4, MaxSegmentPages: 2}); err == nil {
		t.Error("threshold above max segment accepted")
	}
	if _, err := New(st, Config{Threshold: 1, MaxSegmentPages: 1 << 20}); err == nil {
		t.Error("max segment beyond allocator accepted")
	}
}

func TestAppendGrowthPattern(t *testing.T) {
	h, o, _ := harness(t, Config{Threshold: 1, MaxSegmentPages: 8}, 1)
	for i := 0; i < 24; i++ {
		h.Append(4096)
	}
	h.FullCheck()
	sizes, err := segmentSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	wantPages := []int64{1, 2, 4, 8, 8, 8}
	if len(sizes) != len(wantPages) {
		t.Fatalf("segments %v, want pages %v", sizes, wantPages)
	}
	for i, s := range sizes {
		if s[0] != wantPages[i] {
			t.Fatalf("segment %d: %d pages, want %d", i, s[0], wantPages[i])
		}
	}
}

// TestPaperFigure3Shape reproduces the paper's EOS example arithmetic: a
// segment holding 470 of 600 bytes (page size 100) spans ceil(470/100)=5
// pages. Scaled to 4 KB pages here.
func TestDensePacking(t *testing.T) {
	h, o, _ := harness(t, Config{Threshold: 1}, 2)
	h.Append(100000)
	h.Insert(50000, 18800) // 4.58 pages of new data → 5-page segment
	h.FullCheck()
	sizes, err := segmentSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sizes {
		if need := (s[1] + 4095) / 4096; s[0] != need && !(i == len(sizes)-1 && s[0] >= need) {
			t.Fatalf("segment %d: %d pages for %d bytes (dense packing violated)", i, s[0], s[1])
		}
	}
}

// TestInsertSplitsInPlace: inserting mid-segment must not rewrite the head
// part — only the tail is repacked, per §2.3.
func TestInsertSplitsInPlace(t *testing.T) {
	h, o, st := harness(t, Config{Threshold: 1, MaxSegmentPages: 64}, 3)
	h.Append(64 * 4096) // one... actually 1,2,4,8,16,32 pattern; grow to one big tail
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := st.MeasureOp(func() error {
		h.Insert(100*1024, 4096)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The head of the split segment must not have been rewritten: pages
	// written ≈ data (1 page) + repacked tail, far less than the object.
	if stats.PagesWritten > 70 {
		t.Fatalf("insert wrote %d pages", stats.PagesWritten)
	}
	h.FullCheck()
}

// TestThresholdMergesSmallSegments: with a large T, an insert that creates
// small fragments triggers merging so no adjacent pair violates the rule.
func TestThresholdMergesSmallSegments(t *testing.T) {
	h, o, _ := harness(t, Config{Threshold: 16, MaxSegmentPages: 64}, 4)
	h.Append(40 * 4096)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	const insertAt = 10*4096 + 100
	h.Insert(insertAt, 200) // tiny insert mid-segment
	h.FullCheck()
	sizes, err := segmentSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	// Appends never reshuffle, so pairs created by the build pattern may
	// still violate the rule; the constraint must hold at the update seam:
	// every adjacent pair of segments covering [insertAt-1, insertAt+201]
	// where one side is below T and both fit a T-sized segment.
	var start int64
	for i := 0; i+1 < len(sizes); i++ {
		end := start + sizes[i][1] + sizes[i+1][1]
		overlaps := start <= insertAt+201 && end >= insertAt-1
		if overlaps {
			a, b := sizes[i], sizes[i+1]
			minPages := a[0]
			if b[0] < minPages {
				minPages = b[0]
			}
			combined := (a[1] + b[1] + 4095) / 4096
			if minPages < 16 && combined <= 16 {
				t.Fatalf("threshold violated at seam by adjacent pair %v,%v", a, b)
			}
		}
		start += sizes[i][1]
	}
}

// TestThresholdOneNeverMerges: T=1 can never trigger merging.
func TestThresholdOneNeverMerges(t *testing.T) {
	h, o, st := harness(t, Config{Threshold: 1, MaxSegmentPages: 64}, 5)
	h.Append(40 * 4096)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := segmentSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := st.MeasureOp(func() error {
		h.Insert(5*4096+7, 100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := segmentSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	// A mid-page split adds exactly 3 segments: the new data, the sub-page
	// fragment that had to move, and the page-aligned tail that stays in
	// place as its own segment.
	if len(after) != len(before)+3 {
		t.Fatalf("T=1 insert changed segments %d → %d, want +3", len(before), len(after))
	}
	_ = stats
	h.FullCheck()
}

// A 1.5-page object occupies 2 pages whatever T is (§2.3: the threshold is
// not a minimum segment size).
func TestThresholdIsNotAMinimum(t *testing.T) {
	h, o, _ := harness(t, Config{Threshold: 8}, 6)
	h.Append(6144) // 1.5 pages
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	u := o.Utilization()
	if u.DataPages != 2 {
		t.Fatalf("1.5-page object uses %d pages, want 2", u.DataPages)
	}
	h.FullCheck()
}

func TestDeleteTrimsInPlace(t *testing.T) {
	h, o, st := harness(t, Config{Threshold: 1, MaxSegmentPages: 64}, 7)
	h.Append(50 * 4096)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	// Deleting a tail range of a segment costs no data I/O at all.
	stats, err := st.MeasureOp(func() error {
		h.Delete(int64(len(h.Mirror))-8000, 8000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesWritten > 2 { // index root flush only
		t.Fatalf("tail delete wrote %d pages", stats.PagesWritten)
	}
	h.FullCheck()
}

func TestDeleteSpansSegments(t *testing.T) {
	h, _, _ := harness(t, Config{Threshold: 4, MaxSegmentPages: 16}, 8)
	h.Append(300000)
	h.Delete(10000, 150000)
	h.FullCheck()
	h.Delete(0, 5000)
	h.FullCheck()
	h.Delete(0, int64(len(h.Mirror)))
	h.FullCheck()
	h.Append(12345)
	h.FullCheck()
}

func TestReplaceShadowsSegments(t *testing.T) {
	h, o, _ := harness(t, Config{Threshold: 4, MaxSegmentPages: 16}, 9)
	h.Append(200000)
	before, err := segmentSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	h.Replace(50000, 30000)
	h.FullCheck()
	after, err := segmentSizes(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("replace changed segment count %d → %d", len(before), len(after))
	}
}

func TestAppendAfterUpdatesResumesPattern(t *testing.T) {
	h, _, _ := harness(t, Config{Threshold: 4, MaxSegmentPages: 16}, 10)
	h.Append(100000)
	h.Insert(5000, 3000)
	h.Append(50000)
	h.Delete(70000, 20000)
	h.Append(8000)
	h.FullCheck()
}

// TestUtilizationImprovesWithThreshold reproduces the Figure 8 trend: the
// larger the threshold, the better the utilization after random updates.
func TestUtilizationImprovesWithThreshold(t *testing.T) {
	run := func(threshold int) float64 {
		h, o, _ := harness(t, Config{Threshold: threshold, MaxSegmentPages: 256}, 11)
		h.Append(1 << 20)
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			off := int64((i * 104729) % (len(h.Mirror) - 20000))
			h.Insert(off, 5000)
			h.Delete(off+2000, 5000)
		}
		h.FullCheck()
		return o.Utilization().Ratio()
	}
	u1 := run(1)
	u16 := run(16)
	if u16 < u1 {
		t.Fatalf("utilization T=16 (%.3f) worse than T=1 (%.3f)", u16, u1)
	}
	if u16 < 0.9 {
		t.Fatalf("utilization T=16 = %.3f, expected ≥ 0.9", u16)
	}
}

func TestRangeErrors(t *testing.T) {
	o, _ := newObject(t, Config{Threshold: 4})
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
	o, st := newObject(t, Config{Threshold: 4})
	h := lobtest.New(t, o, 12)
	h.Append(300000)
	h.Insert(500, 100)
	h.Delete(100000, 50000)
	if err := o.Destroy(); err != nil {
		t.Fatal(err)
	}
	if st.Leaf.UsedBlocks() != 0 || st.Meta.UsedBlocks() != 0 {
		t.Fatalf("leaked blocks: leaf=%d meta=%d", st.Leaf.UsedBlocks(), st.Meta.UsedBlocks())
	}
}

func TestRandomizedThreshold1(t *testing.T) {
	h, _, _ := harness(t, Config{Threshold: 1, MaxSegmentPages: 16}, 13)
	h.RandomOps(300, 20000)
}

func TestRandomizedThreshold4(t *testing.T) {
	h, _, _ := harness(t, Config{Threshold: 4, MaxSegmentPages: 32}, 14)
	h.RandomOps(300, 30000)
}

func TestRandomizedThreshold16(t *testing.T) {
	h, _, _ := harness(t, Config{Threshold: 16, MaxSegmentPages: 64}, 15)
	h.RandomOps(250, 60000)
}

func TestRandomizedBigMax(t *testing.T) {
	h, _, _ := harness(t, Config{Threshold: 8}, 16)
	h.RandomOps(200, 100000)
}

// TestMutationAllocBudget pins what a warmed insert or delete allocates:
// the segment reads of a split or a threshold merge come from the store's
// per-operation arena, not the heap.
func TestMutationAllocBudget(t *testing.T) {
	lobtest.CheckMutationAllocBudget(t, func(st *store.Store) (core.Object, error) {
		return New(st, Config{Threshold: 16})
	}, 2000, 3000)
}
