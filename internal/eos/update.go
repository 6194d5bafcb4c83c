package eos

import (
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/obs"
	"lobstore/internal/postree"
)

// Insert adds data before the byte at off (§2.3). The containing segment S
// is broken up at the insertion point: the part before stays in place, the
// new bytes go to fresh segments of exactly as many pages as necessary,
// the sub-page fragment sharing the split page is repacked into a fresh
// segment, and the page-aligned remainder of S also stays in place as its
// own segment. No byte of S moves except the fragment on the split page —
// which is why, unlike Starburst, the EOS update cost is independent of
// the object (and segment) size. The segment size threshold is then
// enforced around the split.
func (o *Object) insertOp(off int64, data []byte) error {
	if off == o.Size() {
		return o.appendOp(data)
	}
	if err := core.CheckRange(o.Size(), off, 0); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	if err := o.normalizeRight(); err != nil {
		return err
	}
	e, start, path, err := o.tree.Find(off)
	if err != nil {
		return err
	}
	offIn := off - start
	P := int64(o.st.PageSize())

	var ebuf [4]postree.Entry
	entries := ebuf[:0]
	// A: bytes [0, offIn) stay exactly where they are.
	if offIn > 0 {
		entries = append(entries, postree.Entry{Bytes: offIn, Ptr: e.Ptr})
	}
	// D: the new bytes, in as many pages as necessary.
	entries, err = o.writeData(entries, data)
	if err != nil {
		return err
	}
	// B: bytes [offIn, bS). The fragment B1 sharing A's last page moves to
	// a fresh segment; the page-aligned rest B2 stays in place.
	if offIn == 0 {
		entries = append(entries, e) // clean boundary: S is untouched
	} else {
		b2Page := (offIn + P - 1) / P // first page wholly owned by B
		b1End := b2Page * P
		if b1End > e.Bytes {
			b1End = e.Bytes
		}
		if b1 := b1End - offIn; b1 > 0 {
			frag, err := o.readEntry(e, offIn, b1)
			if err != nil {
				return err
			}
			ne, err := o.repack(frag)
			if err != nil {
				return err
			}
			entries = append(entries, ne)
		}
		if b2 := e.Bytes - b2Page*P; b2 > 0 {
			entries = append(entries, postree.Entry{
				Bytes: b2,
				Ptr:   e.Ptr + uint32(b2Page),
			})
		}
	}
	if o.st.Obs.Enabled() && len(entries) > 1 {
		o.st.Obs.Emit(obs.Event{Kind: obs.KindLeafSplit, Aux1: int64(len(entries))})
	}
	if err := o.tree.ReplaceLeaf(path, entries); err != nil {
		return err
	}
	if err := o.enforceThreshold(maxI64(0, off-1), off+int64(len(data))); err != nil {
		return err
	}
	return o.tree.FlushOp()
}

// writeData materializes new bytes as segments of at most MaxSegmentPages,
// each written with one sequential I/O, and appends their entries to out.
func (o *Object) writeData(out []postree.Entry, data []byte) ([]postree.Entry, error) {
	maxBytes := o.cfg.MaxSegmentPages * o.st.PageSize()
	for len(data) > 0 {
		n := len(data)
		if n > maxBytes {
			n = maxBytes
		}
		e, err := o.repack(data[:n])
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		data = data[n:]
	}
	return out, nil
}

// Delete removes the n bytes at [off, off+n). Whole segments inside the
// range are freed without any data I/O; the left cut edge keeps its head
// in place and returns its dead pages to the buddy system; on the right
// cut edge only the sub-page fragment sharing the cut page is repacked —
// the page-aligned survivors stay in place as their own segment. The
// threshold is then enforced around the seam.
func (o *Object) deleteOp(off, n int64) error {
	if err := core.CheckRange(o.Size(), off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if err := o.normalizeRight(); err != nil {
		return err
	}
	P := int64(o.st.PageSize())
	remaining := n
	for remaining > 0 {
		e, start, path, err := o.tree.Find(off)
		if err != nil {
			return err
		}
		offIn := off - start
		switch {
		case offIn == 0 && remaining >= e.Bytes:
			// Whole segment dropped: no data I/O.
			if err := o.freeSeg(o.seg(e)); err != nil {
				return err
			}
			if err := o.tree.ReplaceLeaf(path, nil); err != nil {
				return err
			}
			remaining -= e.Bytes

		case offIn+remaining >= e.Bytes:
			// Keep only the head: it stays in place; the dead tail pages
			// go back to the buddy system. No data I/O.
			cut := e.Bytes - offIn
			if _, err := o.trimSeg(o.seg(e), o.pagesFor(offIn)); err != nil {
				return err
			}
			if err := o.tree.UpdateLeaf(path, postree.Entry{Bytes: offIn, Ptr: e.Ptr}); err != nil {
				return err
			}
			remaining -= cut

		default:
			// The delete ends inside this segment. Survivors: the head
			// A = [0, offIn) (possibly empty), the sub-page fragment
			// C1 = [end, endPage·P) which must move, and the page-aligned
			// tail C2 which stays put.
			end := offIn + remaining
			c2Page := (end + P - 1) / P
			c1End := c2Page * P
			if c1End > e.Bytes {
				c1End = e.Bytes
			}
			var ebuf [3]postree.Entry
			entries := ebuf[:0]
			if offIn > 0 {
				entries = append(entries, postree.Entry{Bytes: offIn, Ptr: e.Ptr})
			}
			if c1 := c1End - end; c1 > 0 {
				frag, err := o.readEntry(e, end, c1)
				if err != nil {
					return err
				}
				ne, err := o.repack(frag)
				if err != nil {
					return err
				}
				entries = append(entries, ne)
			}
			if c2 := e.Bytes - c2Page*P; c2 > 0 {
				entries = append(entries, postree.Entry{Bytes: c2, Ptr: e.Ptr + uint32(c2Page)})
			}
			// Free the dead whole pages between A's last page and C2's
			// first (C1's source bytes were copied out above).
			headPages := int64(o.pagesFor(offIn))
			if dead := c2Page - headPages; dead > 0 {
				deadSeg := o.st.LeafSegment(e.Ptr+uint32(headPages), int(dead))
				if err := o.freeSeg(deadSeg); err != nil {
					return err
				}
			}
			if err := o.tree.ReplaceLeaf(path, entries); err != nil {
				return err
			}
			remaining = 0
		}
	}
	if err := o.enforceThreshold(maxI64(0, off-1), off); err != nil {
		return err
	}
	return o.tree.FlushOp()
}

// repack writes surviving bytes into a fresh, exactly-sized segment.
func (o *Object) repack(data []byte) (postree.Entry, error) {
	seg, err := o.allocSeg(o.pagesFor(int64(len(data))))
	if err != nil {
		return postree.Entry{}, err
	}
	if err := o.st.WriteFresh(seg.Addr, data); err != nil {
		return postree.Entry{}, err
	}
	return postree.Entry{Bytes: int64(len(data)), Ptr: uint32(seg.Addr.Page)}, nil
}

// Replace overwrites the bytes at [off, off+len(data)): each affected
// segment is shadowed whole (§3.3).
func (o *Object) replaceOp(off int64, data []byte) error {
	if err := core.CheckRange(o.Size(), off, int64(len(data))); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	if err := o.normalizeRight(); err != nil {
		return err
	}
	pos := off
	rest := data
	for len(rest) > 0 {
		e, start, path, err := o.tree.Find(pos)
		if err != nil {
			return err
		}
		offIn := pos - start
		take := e.Bytes - offIn
		if take > int64(len(rest)) {
			take = int64(len(rest))
		}
		content, err := o.readEntry(e, 0, e.Bytes)
		if err != nil {
			return err
		}
		copy(content[offIn:], rest[:take])
		ne, err := o.repack(content)
		if err != nil {
			return err
		}
		if err := o.freeSeg(o.seg(e)); err != nil {
			return err
		}
		if err := o.tree.UpdateLeaf(path, ne); err != nil {
			return err
		}
		rest = rest[take:]
		pos += take
	}
	return o.tree.FlushOp()
}

// enforceThreshold restores the §2.3 constraint in the byte window
// [lo, hi]: no two adjacent segments, one of which has fewer than T pages,
// may hold bytes that fit in a single segment. Offending pairs are merged
// (both segments are read, written into one fresh segment, and freed) until
// the window is stable; each merge widens the check to the new neighbours.
func (o *Object) enforceThreshold(lo, hi int64) error {
	if o.cfg.Threshold <= 1 {
		return nil // no segment has fewer than one page
	}
	for guard := 0; ; guard++ {
		if guard > 1<<20 {
			return fmt.Errorf("eos: threshold enforcement did not converge")
		}
		if o.Size() == 0 || o.tree.LeafCount() <= 1 {
			return nil
		}
		anchor := minI64(lo, o.Size()-1)
		e, start, path, err := o.tree.Find(anchor)
		if err != nil {
			return err
		}
		// Include the left neighbour of the window.
		if pe, pp, ok, err := o.tree.PrevLeaf(path); err != nil {
			return err
		} else if ok {
			start -= pe.Bytes
			e, path = pe, pp
		}
		merged := false
		for start <= hi && start < o.Size() {
			ne, np, ok, err := o.tree.NextLeaf(path)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if o.mergeable(e, ne) {
				if err := o.mergePair(e, path, ne); err != nil {
					return err
				}
				merged = true
				break // paths are stale; rescan the window
			}
			start += e.Bytes
			e, path = ne, np
		}
		if !merged {
			return nil
		}
	}
}

// mergeable applies the threshold rule to an adjacent pair: bytes may not
// be kept in two adjacent segments, one of which has fewer than T pages, if
// they can be stored in one threshold-sized segment. Bounding the merge
// target by T is what makes segments "gradually degrade to about N-page
// leaves, where N is the segment size threshold" (§4.4.2) and keeps the
// insert cost identical for T in 1..4 (§4.4.3).
func (o *Object) mergeable(a, b postree.Entry) bool {
	pa, pb := o.pagesFor(a.Bytes), o.pagesFor(b.Bytes)
	if pa >= o.cfg.Threshold && pb >= o.cfg.Threshold {
		return false
	}
	limit := o.cfg.Threshold
	if limit > o.cfg.MaxSegmentPages {
		limit = o.cfg.MaxSegmentPages
	}
	return o.pagesFor(a.Bytes+b.Bytes) <= limit
}

// mergePair shuffles two adjacent segments into one fresh segment.
func (o *Object) mergePair(a postree.Entry, aPath postree.Path, b postree.Entry) error {
	if o.st.Obs.Enabled() {
		o.st.Obs.Emit(obs.Event{Kind: obs.KindLeafMerge})
	}
	both := o.st.Stage(int(a.Bytes + b.Bytes))
	if err := o.st.ReadRange(o.seg(a), 0, both[:a.Bytes]); err != nil {
		return err
	}
	if err := o.st.ReadRange(o.seg(b), 0, both[a.Bytes:]); err != nil {
		return err
	}
	ne, err := o.repack(both)
	if err != nil {
		return err
	}
	if err := o.freeSeg(o.seg(a)); err != nil {
		return err
	}
	if err := o.freeSeg(o.seg(b)); err != nil {
		return err
	}
	// Swing a's entry to the merged segment, then drop b's entry — it is
	// the one immediately after a, and UpdateLeaf is non-structural, so
	// aPath remains valid for the sideways step.
	if err := o.tree.UpdateLeaf(aPath, ne); err != nil {
		return err
	}
	_, bPath, ok, err := o.tree.NextLeaf(aPath)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("eos: merged pair lost its right entry")
	}
	return o.tree.ReplaceLeaf(bPath, nil)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
