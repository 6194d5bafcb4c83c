package eos

import (
	"encoding/binary"
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/postree"
	"lobstore/internal/store"
)

// Root-page annotation: kind(1)='O' pad(3) threshold(4) maxSegment(4).
const annKindEOS = 'O'

func (o *Object) writeAnnotation() error {
	var ann [12]byte
	ann[0] = annKindEOS
	binary.LittleEndian.PutUint32(ann[4:], uint32(o.cfg.Threshold))
	binary.LittleEndian.PutUint32(ann[8:], uint32(o.cfg.MaxSegmentPages))
	return o.tree.SetAnnotation(ann[:])
}

// Open reattaches to an EOS object previously created in this store or in
// an earlier session of the same file-backed store. The root records no
// growth-pattern slack, so every segment, the rightmost included, is taken
// to occupy exactly ceil(bytes/pageSize) pages (reopen-time recovery marks
// only those, returning the slack of an unclosed object to the buddy
// system); the doubling pattern resumes from the last segment's size.
func Open(st *store.Store, root disk.Addr) (*Object, error) {
	t, ann, err := postree.OpenAnnotated(st, root, annKindEOS)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Threshold:       int(binary.LittleEndian.Uint32(ann[4:])),
		MaxSegmentPages: int(binary.LittleEndian.Uint32(ann[8:])),
	}
	if cfg.Threshold < 1 || cfg.MaxSegmentPages < cfg.Threshold ||
		cfg.MaxSegmentPages > st.MaxSegmentPages() {
		return nil, fmt.Errorf("eos: reopened object has threshold %d / max segment %d",
			cfg.Threshold, cfg.MaxSegmentPages)
	}
	o := attach(st, t, cfg)
	// Rebuild the data page counter and the growth pattern state.
	l, err := o.Layout()
	if err != nil {
		return nil, err
	}
	for _, s := range l.Segments {
		o.dataPages += int64(s.Pages)
	}
	if n := len(l.Segments); n > 0 {
		o.advancePattern(l.Segments[n-1].Pages)
	}
	return o, nil
}

var _ core.PageMarker = (*Object)(nil)
