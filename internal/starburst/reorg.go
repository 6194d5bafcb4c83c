package starburst

import (
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/store"
)

// source streams bytes out of a sequence of parts — in-memory data or byte
// ranges of existing segments — reading segment parts with ReadRange in
// staging-buffer-sized chunks.
type source struct {
	parts []srcPart
	cur   int
}

type srcPart struct {
	mem []byte // when non-nil, literal bytes
	seg store.Segment
	off int64
	n   int64
}

func (s *source) fill(st *store.Store, buf []byte) error {
	pos := 0
	for pos < len(buf) {
		if s.cur >= len(s.parts) {
			return fmt.Errorf("starburst: source exhausted with %d bytes missing", len(buf)-pos)
		}
		p := &s.parts[s.cur]
		switch {
		case p.mem != nil:
			n := copy(buf[pos:], p.mem)
			p.mem = p.mem[n:]
			pos += n
			if len(p.mem) == 0 {
				s.cur++
			}
		case p.n == 0:
			s.cur++
		default:
			take := p.n
			if take > int64(len(buf)-pos) {
				take = int64(len(buf) - pos)
			}
			if err := st.ReadRange(p.seg, p.off, buf[pos:pos+int(take)]); err != nil {
				return err
			}
			p.off += take
			p.n -= take
			pos += int(take)
			if p.n == 0 {
				s.cur++
			}
		}
	}
	return nil
}

// buildSegments materializes total bytes from src into a new set of
// segments, appended to out. Because the total is known, maximal segments
// are used, with the final one allocated exactly as large as needed
// (§2.2). All data moves through the fixed-size staging buffer (§3.5).
func (o *Object) buildSegments(out []segment, total int64, src *source) ([]segment, error) {
	ps := int64(o.st.PageSize())
	maxBytes := int64(o.cfg.MaxSegmentPages) * ps
	buf := o.st.Stage(o.cfg.CopyBufferBytes)
	remaining := total
	for remaining > 0 {
		segBytes := remaining
		if segBytes > maxBytes {
			segBytes = maxBytes
		}
		pages := int((segBytes + ps - 1) / ps)
		seg, err := o.st.AllocSegment(pages)
		if err != nil {
			return nil, err
		}
		var written int64
		for written < segBytes {
			chunk := int64(len(buf))
			if chunk > segBytes-written {
				chunk = segBytes - written
			}
			if err := src.fill(o.st, buf[:chunk]); err != nil {
				return nil, err
			}
			if err := o.writeChunk(seg, written, buf[:chunk]); err != nil {
				return nil, err
			}
			written += chunk
		}
		out = append(out, segment{seg: seg, bytes: segBytes})
		remaining -= segBytes
	}
	return out, nil
}

// writeChunk writes a staging-buffer chunk at a page-aligned offset of a
// fresh segment with one sequential I/O.
func (o *Object) writeChunk(seg store.Segment, off int64, data []byte) error {
	ps := int64(o.st.PageSize())
	if off%ps != 0 {
		// Chunks are buffer-sized and the buffer is a page multiple, so
		// this cannot happen; fall back to the general path if it does.
		return o.st.WriteRange(seg, off, data)
	}
	return o.st.WriteFresh(seg.Addr.Add(int(off/ps)), data)
}

// Insert adds data before the byte at off. Every segment from the one
// containing off onward — included because of shadowing (§3.5) — is read
// and rewritten, together with the new bytes, into a new set of segments.
func (o *Object) insertOp(off int64, data []byte) error {
	if off == o.size {
		return o.appendOp(data)
	}
	if err := core.CheckRange(o.size, off, 0); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	i, start := o.locate(off)
	offIn := off - start
	s := o.segs[i]
	var pbuf [8]srcPart // the parts stay on the stack unless there are more
	parts := append(pbuf[:0],
		srcPart{seg: s.seg, off: 0, n: offIn},
		srcPart{mem: data},
		srcPart{seg: s.seg, off: offIn, n: s.bytes - offIn},
	)
	for _, rest := range o.segs[i+1:] {
		parts = append(parts, srcPart{seg: rest.seg, off: 0, n: rest.bytes})
	}
	tail := (o.size - start) + int64(len(data))
	return o.reorganize(i, tail, &source{parts: parts}, int64(len(data)))
}

// Delete removes the n bytes at [off, off+n); the reorganisation mirrors
// Insert with the deleted range skipped.
func (o *Object) deleteOp(off, n int64) error {
	if err := core.CheckRange(o.size, off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	i, start := o.locate(off)
	offIn := off - start
	var pbuf [8]srcPart // the parts stay on the stack unless there are more
	parts := append(pbuf[:0], srcPart{seg: o.segs[i].seg, off: 0, n: offIn})
	if end := off + n; end < o.size {
		j, startJ := o.locate(end)
		parts = append(parts, srcPart{
			seg: o.segs[j].seg, off: end - startJ, n: o.segs[j].bytes - (end - startJ),
		})
		for _, rest := range o.segs[j+1:] {
			parts = append(parts, srcPart{seg: rest.seg, off: 0, n: rest.bytes})
		}
	}
	tail := (o.size - start) - n
	return o.reorganize(i, tail, &source{parts: parts}, -n)
}

// reorganize replaces segments i.. with a fresh set holding tail bytes
// streamed from src, then frees the old segments and rewrites the
// descriptor.
func (o *Object) reorganize(i int, tail int64, src *source, delta int64) error {
	// The fresh segments are built after the current ones, in the same
	// slice, then moved down over those they replace.
	n := len(o.segs)
	if tail > 0 {
		segs, err := o.buildSegments(o.segs, tail, src)
		if err != nil {
			return err
		}
		o.segs = segs
	}
	// The old segments stay intact until the new copies exist (shadowing);
	// only then are they freed.
	for _, s := range o.segs[i:n] {
		if err := o.st.FreeSegment(s.seg); err != nil {
			return err
		}
	}
	o.segs = append(o.segs[:i], o.segs[n:]...)
	o.size += delta
	// The reorganised field has a known size; future growth resumes with
	// maximal segments.
	o.nextPages = o.cfg.MaxSegmentPages
	return o.writeDescriptor()
}

// Replace overwrites the bytes at [off, off+len(data)). Only the affected
// segments are shadowed: each is copied — with the overlap substituted —
// into a fresh segment of the same size through the staging buffer.
func (o *Object) replaceOp(off int64, data []byte) error {
	if err := core.CheckRange(o.size, off, int64(len(data))); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	end := off + int64(len(data))
	i, start := o.locate(off)
	buf := o.st.Stage(o.cfg.CopyBufferBytes)
	for k := i; k < len(o.segs) && start < end; k++ {
		s := o.segs[k]
		segEnd := start + s.bytes
		lo, hi := off, end
		if lo < start {
			lo = start
		}
		if hi > segEnd {
			hi = segEnd
		}
		src := &source{parts: []srcPart{
			{seg: s.seg, off: 0, n: lo - start},
			{mem: data[lo-off : hi-off]},
			{seg: s.seg, off: hi - start, n: segEnd - hi},
		}}
		fresh, err := o.copySameSize(s, src, buf)
		if err != nil {
			return err
		}
		if err := o.st.FreeSegment(s.seg); err != nil {
			return err
		}
		o.segs[k] = fresh
		start = segEnd
	}
	return o.writeDescriptor()
}

// copySameSize shadows one segment through the staging buffer buf: same
// allocated page count, same byte count, new location.
func (o *Object) copySameSize(old segment, src *source, buf []byte) (segment, error) {
	seg, err := o.st.AllocSegment(int(old.seg.Pages))
	if err != nil {
		return segment{}, err
	}
	var written int64
	for written < old.bytes {
		chunk := int64(len(buf))
		if chunk > old.bytes-written {
			chunk = old.bytes - written
		}
		if err := src.fill(o.st, buf[:chunk]); err != nil {
			return segment{}, err
		}
		if err := o.writeChunk(seg, written, buf[:chunk]); err != nil {
			return segment{}, err
		}
		written += chunk
	}
	return segment{seg: seg, bytes: old.bytes}, nil
}
