package store

import (
	"bytes"
	"testing"
)

func TestShadowEpochDefersFrees(t *testing.T) {
	st := newStore(t)
	seg, _ := fillSegment(t, st, 4)
	used := st.Leaf.UsedBlocks()
	st.BeginOp()
	if err := st.FreeSegment(seg); err != nil {
		t.Fatal(err)
	}
	if st.Leaf.UsedBlocks() != used {
		t.Fatal("free applied inside the shadow epoch")
	}
	// Allocation inside the epoch must not reuse the deferred pages.
	seg2, err := st.AllocSegment(4)
	if err != nil {
		t.Fatal(err)
	}
	if seg2.Addr == seg.Addr {
		t.Fatal("deferred-freed pages reused before commit")
	}
	if err := st.EndOp(); err != nil {
		t.Fatal(err)
	}
	if st.Leaf.UsedBlocks() != used {
		// seg (4 pages) freed, seg2 (4 pages) allocated: net zero.
		t.Fatalf("after EndOp: %d used, want %d", st.Leaf.UsedBlocks(), used)
	}
	if err := st.EndOp(); err == nil {
		t.Fatal("unbalanced EndOp accepted")
	}
}

func TestRunOpNesting(t *testing.T) {
	st := newStore(t)
	seg, _ := fillSegment(t, st, 2)
	err := st.RunOp(func() error {
		return st.RunOp(func() error {
			if err := st.FreeSegment(seg); err != nil {
				return err
			}
			if st.Leaf.UsedBlocks() == 0 {
				t.Fatal("inner EndOp applied frees while outer epoch open")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Leaf.UsedBlocks() != 0 {
		t.Fatal("frees not applied after outermost EndOp")
	}
}

func TestCrashCopySharesDisk(t *testing.T) {
	st := newStore(t)
	seg, data := fillSegment(t, st, 4)
	st2, err := st.CrashCopy()
	if err != nil {
		t.Fatal(err)
	}
	// Same disk: the data is visible; allocators start empty.
	got := make([]byte, len(data))
	if err := st2.ReadRange(Segment{Addr: seg.Addr, Pages: seg.Pages}, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("crash copy cannot see disk data")
	}
	if st2.Leaf.UsedBlocks() != 0 {
		t.Fatal("crash copy inherited allocation state")
	}
}
