package esm

import (
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/obs"
	"lobstore/internal/postree"
)

// Insert adds data before the byte at off. Leaf overflow is handled by the
// improved algorithm of [Care86] — redistribute with one neighbour when
// that avoids a new leaf — unless the object was configured with Basic.
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

	e, start, path, err := o.tree.Find(off)
	if err != nil {
		return err
	}
	offIn := off - start
	total := e.Bytes + int64(len(data))

	if total <= o.leafCap {
		if o.cfg.NoShadow {
			// Ablation: update in place — read and rewrite only the
			// shifted suffix of the leaf.
			moved := o.st.Stage(int(total - offIn))
			copy(moved, data)
			if err := o.readRange(e, offIn, moved[len(data):]); err != nil {
				return err
			}
			if err := o.st.WriteRange(o.seg(e), offIn, moved); err != nil {
				return err
			}
			if err := o.tree.UpdateLeaf(path, postree.Entry{Bytes: total, Ptr: e.Ptr}); err != nil {
				return err
			}
			return o.tree.FlushOp()
		}
		// The insertion fits: shadow the leaf (copy, update, flush).
		content, err := o.readLeaf(e)
		if err != nil {
			return err
		}
		ne, err := o.allocLeaf(splice(o.st.Stage(int(total)), content, offIn, data))
		if err != nil {
			return err
		}
		if err := o.freeLeaf(e); err != nil {
			return err
		}
		if err := o.tree.UpdateLeaf(path, ne); err != nil {
			return err
		}
		return o.tree.FlushOp()
	}

	if o.cfg.Insert == Improved {
		done, err := o.insertWithNeighbour(e, path, offIn, data)
		if err != nil {
			return err
		}
		if done {
			return o.tree.FlushOp()
		}
	}

	// Basic overflow handling: distribute the leaf's bytes and the new
	// bytes evenly over as many new leaves as required.
	content, err := o.readLeaf(e)
	if err != nil {
		return err
	}
	spliced := splice(o.st.Stage(int(total)), content, offIn, data)
	entries, err := o.writePieces(spliced, evenLayout(total, o.leafCap))
	if err != nil {
		return err
	}
	if o.st.Obs.Enabled() && len(entries) > 1 {
		o.st.Obs.Emit(obs.Event{Kind: obs.KindLeafSplit, Aux1: int64(len(entries))})
	}
	if err := o.freeLeaf(e); err != nil {
		return err
	}
	if err := o.tree.ReplaceLeaf(path, entries); err != nil {
		return err
	}
	return o.tree.FlushOp()
}

// insertWithNeighbour attempts the improved insert: fold the overflowing
// content into this leaf plus one neighbour so no new leaf is created.
// Both leaves are shadowed since their bytes shift.
func (o *Object) insertWithNeighbour(e postree.Entry, path postree.Path, offIn int64, data []byte) (bool, error) {
	total := e.Bytes + int64(len(data))

	type side struct {
		e      postree.Entry
		path   postree.Path
		isLeft bool
	}
	var sides [2]side
	candidates := sides[:0]
	if pe, pp, ok, err := o.tree.PrevLeaf(path); err != nil {
		return false, err
	} else if ok {
		candidates = append(candidates, side{pe, pp, true})
	}
	if ne, np, ok, err := o.tree.NextLeaf(path); err != nil {
		return false, err
	} else if ok {
		candidates = append(candidates, side{ne, np, false})
	}
	for _, c := range candidates {
		if c.e.Bytes+total > 2*o.leafCap {
			continue
		}
		// Redistribute [neighbour|this] (or [this|neighbour]) evenly over
		// the same two leaves.
		combined := o.st.Stage(int(c.e.Bytes + total))
		spliced, nbytes := combined[c.e.Bytes:], combined[:c.e.Bytes]
		if !c.isLeft {
			spliced, nbytes = combined[:total], combined[total:]
		}
		content, err := o.readLeaf(e)
		if err != nil {
			return false, err
		}
		splice(spliced, content, offIn, data)
		if err := o.readRange(c.e, 0, nbytes); err != nil {
			return false, err
		}
		half := int64(len(combined)+1) / 2
		first, err := o.allocLeaf(combined[:half])
		if err != nil {
			return false, err
		}
		second, err := o.allocLeaf(combined[half:])
		if err != nil {
			return false, err
		}
		if err := o.freeLeaf(e); err != nil {
			return false, err
		}
		if err := o.freeLeaf(c.e); err != nil {
			return false, err
		}
		// Neither update changes tree structure, so both paths stay valid.
		a, b := first, second
		if !c.isLeft {
			// this leaf precedes the neighbour
			if err := o.tree.UpdateLeaf(path, a); err != nil {
				return false, err
			}
			return true, o.tree.UpdateLeaf(c.path, b)
		}
		if err := o.tree.UpdateLeaf(c.path, a); err != nil {
			return false, err
		}
		return true, o.tree.UpdateLeaf(path, b)
	}
	return false, nil
}

// Delete removes the n bytes at [off, off+n) (§3.4 delete behaviour:
// whole-leaf drops, in-place truncation of the left cut edge, shadowing of
// the right cut edge, then rebalancing of underfull seam leaves).
func (o *Object) deleteOp(off, n int64) error {
	if err := core.CheckRange(o.Size(), off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	remaining := n
	for remaining > 0 {
		e, start, path, err := o.tree.Find(off)
		if err != nil {
			return err
		}
		offIn := off - start
		switch {
		case offIn == 0 && remaining >= e.Bytes:
			// Drop the whole leaf; no data I/O at all.
			if err := o.freeLeaf(e); err != nil {
				return err
			}
			if err := o.tree.ReplaceLeaf(path, nil); err != nil {
				return err
			}
			remaining -= e.Bytes

		case offIn == 0:
			// Keep only the tail: the content shifts, so shadow the leaf.
			content, err := o.readLeaf(e)
			if err != nil {
				return err
			}
			ne, err := o.allocLeaf(content[remaining:])
			if err != nil {
				return err
			}
			if err := o.freeLeaf(e); err != nil {
				return err
			}
			if err := o.tree.UpdateLeaf(path, ne); err != nil {
				return err
			}
			remaining = 0

		case offIn+remaining >= e.Bytes:
			// Keep only the head: truncation leaves existing bytes in
			// place — only the count changes, no data I/O.
			cut := e.Bytes - offIn
			if err := o.tree.UpdateLeaf(path, postree.Entry{Bytes: offIn, Ptr: e.Ptr}); err != nil {
				return err
			}
			remaining -= cut

		default:
			// Interior delete within one leaf: head and tail survive.
			content, err := o.readLeaf(e)
			if err != nil {
				return err
			}
			kept := append(content[:offIn], content[offIn+remaining:]...)
			ne, err := o.allocLeaf(kept)
			if err != nil {
				return err
			}
			if err := o.freeLeaf(e); err != nil {
				return err
			}
			if err := o.tree.UpdateLeaf(path, ne); err != nil {
				return err
			}
			remaining = 0
		}
	}
	if err := o.fixSeam(off); err != nil {
		return err
	}
	return o.tree.FlushOp()
}

// fixSeam restores the half-full leaf invariant around the deletion point.
func (o *Object) fixSeam(off int64) error {
	for i := 0; i < 64; i++ { // defensive bound; convergence takes 1-3 rounds
		if o.Size() == 0 || o.tree.LeafCount() <= 1 {
			return nil
		}
		anchor := off
		if anchor >= o.Size() {
			anchor = o.Size() - 1
		}
		e, start, path, err := o.tree.Find(anchor)
		if err != nil {
			return err
		}
		if 2*e.Bytes < o.leafCap {
			if err := o.mergeOrShare(e, path); err != nil {
				return err
			}
			continue
		}
		// Also check the leaf left of the seam.
		pe, pp, ok, err := o.tree.PrevLeaf(path)
		if err != nil {
			return err
		}
		if ok && 2*pe.Bytes < o.leafCap {
			if err := o.mergeOrShare(pe, pp); err != nil {
				return err
			}
			continue
		}
		_ = start
		return nil
	}
	return fmt.Errorf("esm: seam rebalancing did not converge")
}

// mergeOrShare fixes one underfull leaf by merging with a neighbour when
// both fit in one leaf, or by redistributing bytes evenly otherwise. All
// involved leaves are shadowed (their bytes shift).
func (o *Object) mergeOrShare(e postree.Entry, path postree.Path) error {
	nb, npth, isLeft, ok, err := o.pickNeighbour(path)
	if err != nil {
		return err
	}
	if !ok {
		return nil // single leaf: nothing to do
	}
	var leftE, rightE postree.Entry
	var leftP, rightP postree.Path
	if isLeft {
		leftE, leftP, rightE, rightP = nb, npth, e, path
	} else {
		leftE, leftP, rightE, rightP = e, path, nb, npth
	}
	combined := o.st.Stage(int(leftE.Bytes + rightE.Bytes))
	if err := o.readRange(leftE, 0, combined[:leftE.Bytes]); err != nil {
		return err
	}
	if err := o.readRange(rightE, 0, combined[leftE.Bytes:]); err != nil {
		return err
	}

	if int64(len(combined)) <= o.leafCap {
		if o.st.Obs.Enabled() {
			o.st.Obs.Emit(obs.Event{Kind: obs.KindLeafMerge})
		}
		merged, err := o.allocLeaf(combined)
		if err != nil {
			return err
		}
		if err := o.freeLeaf(leftE); err != nil {
			return err
		}
		if err := o.freeLeaf(rightE); err != nil {
			return err
		}
		if err := o.tree.UpdateLeaf(leftP, merged); err != nil {
			return err
		}
		// Dropping the right entry is structural, but leftP was consumed
		// already and rightP remains valid until this change.
		return o.tree.ReplaceLeaf(rightP, nil)
	}

	half := int64(len(combined)+1) / 2
	nl, err := o.allocLeaf(combined[:half])
	if err != nil {
		return err
	}
	nr, err := o.allocLeaf(combined[half:])
	if err != nil {
		return err
	}
	if err := o.freeLeaf(leftE); err != nil {
		return err
	}
	if err := o.freeLeaf(rightE); err != nil {
		return err
	}
	if err := o.tree.UpdateLeaf(leftP, nl); err != nil {
		return err
	}
	return o.tree.UpdateLeaf(rightP, nr)
}

// pickNeighbour returns the neighbour with which rebalancing is cheaper:
// the one holding fewer bytes (preferring left on ties).
func (o *Object) pickNeighbour(path postree.Path) (postree.Entry, postree.Path, bool, bool, error) {
	pe, pp, pok, err := o.tree.PrevLeaf(path)
	if err != nil {
		return postree.Entry{}, nil, false, false, err
	}
	ne, np, nok, err := o.tree.NextLeaf(path)
	if err != nil {
		return postree.Entry{}, nil, false, false, err
	}
	switch {
	case pok && (!nok || pe.Bytes <= ne.Bytes):
		return pe, pp, true, true, nil
	case nok:
		return ne, np, false, true, nil
	default:
		return postree.Entry{}, nil, false, false, nil
	}
}

// Replace overwrites the bytes at [off, off+len(data)): every affected leaf
// is shadowed (copy, update, flush), per §3.3.
func (o *Object) replaceOp(off int64, data []byte) error {
	if err := core.CheckRange(o.Size(), off, int64(len(data))); err != nil {
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
		if o.cfg.NoShadow {
			// Ablation: overwrite just the affected pages in place.
			if err := o.st.WriteRange(o.seg(e), offIn, rest[:take]); err != nil {
				return err
			}
		} else {
			content, err := o.readLeaf(e)
			if err != nil {
				return err
			}
			copy(content[offIn:], rest[:take])
			ne, err := o.allocLeaf(content)
			if err != nil {
				return err
			}
			if err := o.freeLeaf(e); err != nil {
				return err
			}
			if err := o.tree.UpdateLeaf(path, ne); err != nil {
				return err
			}
		}
		rest = rest[take:]
		pos += take
	}
	return o.tree.FlushOp()
}

// splice fills dst, which holds len(content)+len(data) bytes, with
// content with data inserted at cut, and returns it.
func splice(dst, content []byte, cut int64, data []byte) []byte {
	n := copy(dst, content[:cut])
	n += copy(dst[n:], data)
	copy(dst[n:], content[cut:])
	return dst
}

// evenLayout cuts n bytes into the minimum number of pieces of at most cap
// bytes, sized as evenly as possible (the basic insert distribution).
func evenLayout(n, cap int64) []int64 {
	m := (n + cap - 1) / cap
	if m == 0 {
		return nil
	}
	base := n / m
	rem := n % m
	out := make([]int64, m)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// writePieces materializes consecutive pieces of data as fresh leaves.
func (o *Object) writePieces(data []byte, pieces []int64) ([]postree.Entry, error) {
	entries := make([]postree.Entry, 0, len(pieces))
	pos := int64(0)
	for _, sz := range pieces {
		e, err := o.allocLeaf(data[pos : pos+sz])
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
		pos += sz
	}
	if pos != int64(len(data)) {
		return nil, fmt.Errorf("esm: layout consumed %d of %d bytes", pos, len(data))
	}
	return entries, nil
}
