package esm

import (
	"fmt"

	"lobstore/internal/postree"
)

// Append adds data at the end of the object (§3.4).
//
// When the rightmost leaf overflows, the new bytes, the bytes of the
// rightmost leaf, and the bytes of its left neighbour (if it has free
// space) are redistributed so that all but the two rightmost leaves are
// full and the remaining bytes are split evenly over the last two, each at
// least half full. Appends never shadow a leaf whose existing bytes stay in
// place: those leaves are extended with one sequential write of exactly the
// dirty blocks.
func (o *Object) appendOp(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if o.Size() == 0 {
		if err := o.appendFresh(data); err != nil {
			return err
		}
		return o.tree.FlushOp()
	}

	e, start, path, err := o.tree.Rightmost()
	if err != nil {
		return err
	}
	_ = start
	free := o.leafCap - e.Bytes
	if int64(len(data)) <= free {
		// Plain in-place append: complete the partial last block and write
		// the new blocks with one sequential I/O.
		if err := o.st.WriteRange(o.seg(e), e.Bytes, data); err != nil {
			return err
		}
		if err := o.tree.UpdateLeaf(path, postree.Entry{Bytes: e.Bytes + int64(len(data)), Ptr: e.Ptr}); err != nil {
			return err
		}
		return o.tree.FlushOp()
	}

	// Overflow: compute the redistribution layout over [left?][R][data].
	total := e.Bytes + int64(len(data))
	pour := int64(0)
	var prevE postree.Entry
	var prevPath postree.Path
	if pe, pp, ok, err := o.tree.PrevLeaf(path); err != nil {
		return err
	} else if ok && pe.Bytes < o.leafCap && pe.Bytes+total > 2*o.leafCap {
		// The left neighbour ends up full in the final layout, so it only
		// ever gains bytes: pour the head of [R|data] into it in place.
		prevE, prevPath = pe, pp
		pour = o.leafCap - pe.Bytes
	}

	pieces := appendLayout(total-pour, o.leafCap)

	// Decide whether R's bytes stay in place: they do exactly when nothing
	// is poured left and the first piece is at least as long as R.
	keepR := pour == 0 && pieces[0] >= e.Bytes

	var combined []byte
	if keepR {
		combined = data // only the new bytes move
	} else {
		combined = o.st.Stage(int(total))
		if err := o.readRange(e, 0, combined[:e.Bytes]); err != nil {
			return err
		}
		copy(combined[e.Bytes:], data)
	}

	if pour > 0 {
		if err := o.st.WriteRange(o.seg(prevE), prevE.Bytes, combined[:pour]); err != nil {
			return err
		}
		if err := o.tree.UpdateLeaf(prevPath, postree.Entry{Bytes: o.leafCap, Ptr: prevE.Ptr}); err != nil {
			return err
		}
		combined = combined[pour:]
	}

	entries := make([]postree.Entry, 0, len(pieces))
	pos := int64(0)
	for i, sz := range pieces {
		if i == 0 && keepR {
			// Extend R in place with the suffix of the first piece.
			grow := sz - e.Bytes
			if grow > 0 {
				if err := o.st.WriteRange(o.seg(e), e.Bytes, combined[:grow]); err != nil {
					return err
				}
			}
			entries = append(entries, postree.Entry{Bytes: sz, Ptr: e.Ptr})
			pos += grow
			continue
		}
		ne, err := o.allocLeaf(combined[pos : pos+sz])
		if err != nil {
			return err
		}
		entries = append(entries, ne)
		pos += sz
	}
	if pos != int64(len(combined)) {
		return fmt.Errorf("esm: append layout consumed %d of %d bytes", pos, len(combined))
	}
	if !keepR {
		if err := o.freeLeaf(e); err != nil {
			return err
		}
	}
	if err := o.tree.ReplaceLeaf(path, entries); err != nil {
		return err
	}
	return o.tree.FlushOp()
}

// appendFresh builds the initial leaves of an empty object.
func (o *Object) appendFresh(data []byte) error {
	entries, err := o.writePieces(data, appendLayout(int64(len(data)), o.leafCap))
	if err != nil {
		return err
	}
	return o.tree.AppendLeaves(entries)
}

// appendLayout cuts n bytes into leaf-sized pieces: all but the last two
// full, the remainder split evenly with each half at least cap/2.
func appendLayout(n, cap int64) []int64 {
	if n <= cap {
		return []int64{n}
	}
	k := (n + cap - 1) / cap
	full := k - 2
	rest := n - full*cap
	a := (rest + 1) / 2
	b := rest - a
	out := make([]int64, 0, k)
	for i := int64(0); i < full; i++ {
		out = append(out, cap)
	}
	return append(out, a, b)
}
