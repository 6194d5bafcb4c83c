package esm

import (
	"encoding/binary"
	"fmt"

	"lobstore/internal/core"
	"lobstore/internal/disk"
	"lobstore/internal/postree"
	"lobstore/internal/store"
)

// Root-page annotation: kind(1)='E' flags(1) pad(2) leafPages(4).
const annKindESM = 'E'

const (
	annFlagBasic       = 1 << 0
	annFlagWholeLeafIO = 1 << 1
	annFlagNoShadow    = 1 << 2
)

func (o *Object) writeAnnotation() error {
	var ann [8]byte
	ann[0] = annKindESM
	var flags byte
	if o.cfg.Insert == Basic {
		flags |= annFlagBasic
	}
	if o.cfg.WholeLeafIO {
		flags |= annFlagWholeLeafIO
	}
	if o.cfg.NoShadow {
		flags |= annFlagNoShadow
	}
	ann[1] = flags
	binary.LittleEndian.PutUint32(ann[4:], uint32(o.cfg.LeafPages))
	return o.tree.SetAnnotation(ann[:])
}

// Open reattaches to an ESM object previously created in this store or in
// an earlier session of the same file-backed store. The configuration is
// read back from the root page annotation.
func Open(st *store.Store, root disk.Addr) (*Object, error) {
	t, ann, err := postree.OpenAnnotated(st, root, annKindESM)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		LeafPages:   int(binary.LittleEndian.Uint32(ann[4:])),
		WholeLeafIO: ann[1]&annFlagWholeLeafIO != 0,
		NoShadow:    ann[1]&annFlagNoShadow != 0,
	}
	if ann[1]&annFlagBasic != 0 {
		cfg.Insert = Basic
	}
	if cfg.LeafPages <= 0 || cfg.LeafPages > st.MaxSegmentPages() {
		return nil, fmt.Errorf("esm: reopened object has leaf size %d", cfg.LeafPages)
	}
	return attach(st, t, cfg), nil
}

var _ core.PageMarker = (*Object)(nil)
