package postree

import (
	"cmp"
	"fmt"
	"slices"

	"lobstore/internal/disk"
)

// FlushOp completes one update operation by applying the shadowing policy
// of §3.3 to every index page the operation dirtied:
//
//   - a page created during the operation is simply written out (one I/O);
//   - a pre-existing non-root page is written to a freshly allocated shadow
//     page, its parent's pointer is swung to the new location and the old
//     page is freed;
//   - the root, which never moves, is flushed in place last.
//
// Pages are processed lowest level first so every parent is still at its
// recorded address when its child relocates. The manager must call FlushOp
// at the end of every operation that modified the object.
func (t *Tree) FlushOp() error {
	items := t.flushItems[:0]
	for a, r := range t.dirty {
		items = append(items, flushItem{a, r})
	}
	slices.SortFunc(items, flushOrder)
	t.flushItems = items

	// relocated maps old page addresses to their shadow locations so later
	// parent fix-ups can follow a page that has already moved (it cannot
	// happen for well-formed trees, but the check keeps errors loud).
	for _, it := range items {
		if it.rec.isNew {
			// Fresh page: write it where it was allocated. If buffer
			// pressure already evicted (and thereby wrote) it, this is
			// free — a fresh location has no pre-image to protect.
			if err := t.st.Pool.FlushPage(it.addr); err != nil {
				return err
			}
			if err := t.st.Pool.SetSticky(it.addr, false); err != nil {
				return err
			}
			continue
		}
		if err := t.shadowPage(it.addr, it.rec.parent); err != nil {
			return err
		}
	}
	if t.rootDirty {
		// The root write is the operation's commit point: every shadow page
		// and leaf segment written above must be durable before the root can
		// point at them, or a crash could commit an operation whose pages
		// never reached the disk.
		if err := t.st.SyncBarrier(); err != nil {
			return err
		}
		if err := t.st.Pool.FlushPage(t.root); err != nil {
			return err
		}
		if err := t.st.Pool.SetSticky(t.root, false); err != nil {
			return err
		}
	}
	clear(t.dirty)
	t.rootDirty = false
	return nil
}

type flushItem struct {
	addr disk.Addr
	rec  *dirtyRec
}

// flushOrder sorts dirty pages lowest level first, then by page number.
func flushOrder(a, b flushItem) int {
	if c := cmp.Compare(a.rec.level, b.rec.level); c != 0 {
		return c
	}
	return cmp.Compare(a.addr.Page, b.addr.Page)
}

// shadowPage moves a dirty index page to a freshly allocated location,
// swings the parent pointer and frees the old page.
func (t *Tree) shadowPage(old, parent disk.Addr) error {
	newAddr, err := t.st.AllocMetaPage()
	if err != nil {
		return err
	}
	if !t.st.Pool.Contains(old) {
		// Buffer pressure evicted the page mid-operation (writing it back
		// to its old home). Re-read it so the shadow copy can be produced.
		h, err := t.st.Pool.FixPage(old)
		if err != nil {
			return err
		}
		h.Unfix(false)
	}
	if err := t.st.Pool.Relocate(old, newAddr); err != nil {
		return err
	}
	if err := t.st.Pool.FlushPage(newAddr); err != nil {
		return err
	}
	if err := t.st.Pool.SetSticky(newAddr, false); err != nil {
		return err
	}
	if err := t.st.FreeMetaPage(old); err != nil {
		return err
	}
	// Swing the parent's pointer. The parent is itself dirty (it is either
	// on the same operation path or the root), so the change reaches disk
	// later in this flush.
	hp, pn, err := t.fix(parent)
	if err != nil {
		return err
	}
	defer hp.Unfix(true)
	for i := 0; i < pn.npairs(); i++ {
		if pn.ptr(i) == uint32(old.Page) {
			pn.setPtr(i, uint32(newAddr.Page))
			if parent == t.root {
				t.rootDirty = true
			}
			return nil
		}
	}
	return fmt.Errorf("postree: shadow flush: parent %v has no pointer to %v", parent, old)
}

// DirtyIndexPages reports how many index pages the current operation has
// dirtied so far (root included). Testing aid.
func (t *Tree) DirtyIndexPages() int {
	n := len(t.dirty)
	if t.rootDirty {
		n++
	}
	return n
}
