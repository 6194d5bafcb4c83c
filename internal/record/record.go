// Package record implements small objects — records of short fields plus
// long field descriptors — on slotted pages, realizing §2 of the paper:
//
//	"a person object with attributes name, picture, and voice … can be
//	mapped to a small database object that contains the short field name
//	and two long field descriptors corresponding to long fields picture
//	and voice".
//
// Records must fit in a single page; attributes that cannot are stored as
// long fields under one of the three large object managers, and the record
// keeps only the descriptor. This is the client-side view the paper's §2
// says the storage manager must leave open ("'large objects' versus 'long
// fields' is an issue that must be considered by the clients").
package record

import (
	"encoding/binary"
	"fmt"

	"lobstore/internal/catalog"
	"lobstore/internal/disk"
	"lobstore/internal/store"
)

// RID identifies a record: the metadata page holding it and its slot.
type RID struct {
	Page disk.PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("rid(%d,%d)", r.Page, r.Slot) }

// LongRef is a long field descriptor as stored inside a record: the owning
// manager and the durable root of the large object holding the field.
type LongRef struct {
	Kind catalog.Kind
	Root disk.Addr
}

// Field is one record attribute: either inline bytes (a short field) or a
// long field reference.
type Field struct {
	Inline []byte
	Long   *LongRef
}

// ShortField builds an inline attribute.
func ShortField(data []byte) Field { return Field{Inline: data} }

// LongField builds a long field attribute from a descriptor.
func LongField(ref LongRef) Field { return Field{Long: &ref} }

// File is a heap file of records over slotted metadata pages.
type File struct {
	st    *store.Store
	first disk.Addr
}

// Slotted page layout:
//
//	magic(4) version(2) nslots(2) freeOff(2) pad(2) next(4)
//	record data grows upward from the header;
//	the slot directory (off(2) len(2) per slot) grows down from the end.
const (
	filePageHdr = 16
	slotDirEnt  = 4
	fileMagic   = 0x4C4F4252 // "LOBR"
	fileVersion = 1
	deadOff     = 0xFFFF // slot tombstone
)

// NewFile creates an empty record file and returns it; its Root page is
// the durable handle.
func NewFile(st *store.Store) (*File, error) {
	addr, err := st.AllocMetaPage()
	if err != nil {
		return nil, err
	}
	f := &File{st: st, first: addr}
	h, err := st.Pool.FixNew(addr)
	if err != nil {
		return nil, err
	}
	initFilePage(h.Data)
	h.Unfix(true)
	if err := st.Pool.FlushPage(addr); err != nil {
		return nil, err
	}
	return f, nil
}

// OpenFile reattaches to a record file by its root page.
func OpenFile(st *store.Store, root disk.Addr) (*File, error) {
	h, err := st.Pool.FixPage(root)
	if err != nil {
		return nil, err
	}
	defer h.Unfix(false)
	if binary.LittleEndian.Uint32(h.Data[0:]) != fileMagic {
		return nil, fmt.Errorf("record: page %v is not a record page", root)
	}
	return &File{st: st, first: root}, nil
}

// Root returns the first page of the file.
func (f *File) Root() disk.Addr { return f.first }

func initFilePage(page []byte) {
	clear(page)
	binary.LittleEndian.PutUint32(page[0:], fileMagic)
	binary.LittleEndian.PutUint16(page[4:], fileVersion)
	binary.LittleEndian.PutUint16(page[8:], filePageHdr) // freeOff
}

// --- record serialization ---------------------------------------------

const (
	fieldShort = 0
	fieldLong  = 1
	longEncLen = 1 + 1 + 1 + 4 // tag, kind, area, page
)

// encodeRecord serializes fields; layout: nfields(2), then per field either
// tag=0 len(4) bytes, or tag=1 kind(1) area(1) page(4).
func encodeRecord(fields []Field) ([]byte, error) {
	out := make([]byte, 2, 64)
	binary.LittleEndian.PutUint16(out, uint16(len(fields)))
	for i, fl := range fields {
		switch {
		case fl.Long != nil && fl.Inline != nil:
			return nil, fmt.Errorf("record: field %d is both short and long", i)
		case fl.Long != nil:
			out = append(out, fieldLong, byte(fl.Long.Kind), byte(fl.Long.Root.Area))
			out = binary.LittleEndian.AppendUint32(out, uint32(fl.Long.Root.Page))
		default:
			out = append(out, fieldShort)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(fl.Inline)))
			out = append(out, fl.Inline...)
		}
	}
	return out, nil
}

func decodeRecord(data []byte) ([]Field, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("record: truncated record")
	}
	n := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	fields := make([]Field, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < 1 {
			return nil, fmt.Errorf("record: truncated field %d", i)
		}
		switch tag := data[0]; tag {
		case fieldShort:
			if len(data) < 5 {
				return nil, fmt.Errorf("record: truncated short field %d", i)
			}
			l := int(binary.LittleEndian.Uint32(data[1:]))
			if len(data) < 5+l {
				return nil, fmt.Errorf("record: truncated short field %d", i)
			}
			fields = append(fields, ShortField(append([]byte{}, data[5:5+l]...)))
			data = data[5+l:]
		case fieldLong:
			if len(data) < longEncLen {
				return nil, fmt.Errorf("record: truncated long field %d", i)
			}
			ref := LongRef{
				Kind: catalog.Kind(data[1]),
				Root: disk.Addr{
					Area: disk.AreaID(data[2]),
					Page: disk.PageID(binary.LittleEndian.Uint32(data[3:])),
				},
			}
			fields = append(fields, LongField(ref))
			data = data[longEncLen:]
		default:
			return nil, fmt.Errorf("record: unknown field tag %d", tag)
		}
	}
	return fields, nil
}

// --- heap file operations ----------------------------------------------

// maxRecordBytes is the largest serialized record a page can hold.
func (f *File) maxRecordBytes() int {
	return f.st.PageSize() - filePageHdr - slotDirEnt
}

// Insert stores a record and returns its RID. The serialized record must
// fit in one page — store oversized attributes as long fields.
func (f *File) Insert(fields []Field) (RID, error) {
	rec, err := encodeRecord(fields)
	if err != nil {
		return RID{}, err
	}
	if len(rec) > f.maxRecordBytes() {
		return RID{}, fmt.Errorf("record: %d bytes exceed the %d-byte page capacity; store large attributes as long fields",
			len(rec), f.maxRecordBytes())
	}
	addr := f.first
	for {
		h, err := f.st.Pool.FixPage(addr)
		if err != nil {
			return RID{}, err
		}
		nslots := int(binary.LittleEndian.Uint16(h.Data[6:]))
		freeOff := int(binary.LittleEndian.Uint16(h.Data[8:]))
		dirStart := len(h.Data) - (nslots+1)*slotDirEnt
		if freeOff+len(rec) <= dirStart {
			// Reuse a tombstoned slot when possible, else append one.
			slotIdx := nslots
			for i := 0; i < nslots; i++ {
				if slotOff(h.Data, i) == deadOff {
					slotIdx = i
					break
				}
			}
			copy(h.Data[freeOff:], rec)
			setSlot(h.Data, slotIdx, uint16(freeOff), uint16(len(rec)))
			if slotIdx == nslots {
				binary.LittleEndian.PutUint16(h.Data[6:], uint16(nslots+1))
			}
			binary.LittleEndian.PutUint16(h.Data[8:], uint16(freeOff+len(rec)))
			h.Unfix(true)
			if err := f.st.Pool.FlushPage(addr); err != nil {
				return RID{}, err
			}
			return RID{Page: addr.Page, Slot: uint16(slotIdx)}, nil
		}
		next := disk.PageID(binary.LittleEndian.Uint32(h.Data[12:]))
		if next != 0 {
			h.Unfix(false)
			addr = disk.Addr{Area: addr.Area, Page: next}
			continue
		}
		// Chain a new page: write it before the predecessor's pointer so a
		// crash between the two writes never leaves a dangling chain.
		newAddr, err := f.st.AllocMetaPage()
		if err != nil {
			h.Unfix(false)
			return RID{}, err
		}
		nh, err := f.st.Pool.FixNew(newAddr)
		if err != nil {
			h.Unfix(false)
			return RID{}, err
		}
		initFilePage(nh.Data)
		nh.Unfix(true)
		if err := f.st.Pool.FlushPage(newAddr); err != nil {
			h.Unfix(false)
			return RID{}, err
		}
		binary.LittleEndian.PutUint32(h.Data[12:], uint32(newAddr.Page))
		h.Unfix(true)
		if err := f.st.Pool.FlushPage(addr); err != nil {
			return RID{}, err
		}
		addr = newAddr
	}
}

func slotOff(page []byte, i int) int {
	base := len(page) - (i+1)*slotDirEnt
	return int(binary.LittleEndian.Uint16(page[base:]))
}

func slotLen(page []byte, i int) int {
	base := len(page) - (i+1)*slotDirEnt
	return int(binary.LittleEndian.Uint16(page[base+2:]))
}

func setSlot(page []byte, i int, off, n uint16) {
	base := len(page) - (i+1)*slotDirEnt
	binary.LittleEndian.PutUint16(page[base:], off)
	binary.LittleEndian.PutUint16(page[base+2:], n)
}

// Read fetches a record.
func (f *File) Read(rid RID) ([]Field, error) {
	addr := disk.Addr{Area: f.first.Area, Page: rid.Page}
	h, err := f.st.Pool.FixPage(addr)
	if err != nil {
		return nil, err
	}
	defer h.Unfix(false)
	if binary.LittleEndian.Uint32(h.Data[0:]) != fileMagic {
		return nil, fmt.Errorf("record: %v is not a record page", addr)
	}
	nslots := int(binary.LittleEndian.Uint16(h.Data[6:]))
	if int(rid.Slot) >= nslots {
		return nil, fmt.Errorf("record: %v has no slot %d", addr, rid.Slot)
	}
	off := slotOff(h.Data, int(rid.Slot))
	if off == deadOff {
		return nil, fmt.Errorf("record: %v was deleted", rid)
	}
	n := slotLen(h.Data, int(rid.Slot))
	if off < filePageHdr || off+n > len(h.Data) {
		return nil, fmt.Errorf("record: corrupted slot %v: [%d,+%d)", rid, off, n)
	}
	return decodeRecord(h.Data[off : off+n])
}

// Delete tombstones a record. Long fields referenced by the record are
// separate objects and are not destroyed with it.
func (f *File) Delete(rid RID) error {
	addr := disk.Addr{Area: f.first.Area, Page: rid.Page}
	h, err := f.st.Pool.FixPage(addr)
	if err != nil {
		return err
	}
	nslots := int(binary.LittleEndian.Uint16(h.Data[6:]))
	if int(rid.Slot) >= nslots || slotOff(h.Data, int(rid.Slot)) == deadOff {
		h.Unfix(false)
		return fmt.Errorf("record: %v does not exist", rid)
	}
	setSlot(h.Data, int(rid.Slot), deadOff, 0)
	h.Unfix(true)
	return f.st.Pool.FlushPage(addr)
}

// MarkPages reports every chain page of the file for shadow recovery. The
// long fields referenced by records are separate objects; enumerate them
// with LongRefs and mark each through its own manager.
func (f *File) MarkPages(mark func(addr disk.Addr, pages int) error) error {
	addr := f.first
	for {
		if err := mark(addr, 1); err != nil {
			return err
		}
		h, err := f.st.Pool.FixPage(addr)
		if err != nil {
			return err
		}
		next := disk.PageID(binary.LittleEndian.Uint32(h.Data[12:]))
		h.Unfix(false)
		if next == 0 {
			return nil
		}
		addr = disk.Addr{Area: addr.Area, Page: next}
	}
}

// LongRefs enumerates every long field descriptor stored in any record of
// the file.
func (f *File) LongRefs() ([]LongRef, error) {
	var out []LongRef
	addr := f.first
	for {
		h, err := f.st.Pool.FixPage(addr)
		if err != nil {
			return nil, err
		}
		nslots := int(binary.LittleEndian.Uint16(h.Data[6:]))
		for i := 0; i < nslots; i++ {
			off := slotOff(h.Data, i)
			if off == deadOff {
				continue
			}
			n := slotLen(h.Data, i)
			if off < filePageHdr || off+n > len(h.Data) {
				h.Unfix(false)
				return nil, fmt.Errorf("record: corrupted slot %d on page %v", i, addr)
			}
			fields, err := decodeRecord(h.Data[off : off+n])
			if err != nil {
				h.Unfix(false)
				return nil, err
			}
			for _, fl := range fields {
				if fl.Long != nil {
					out = append(out, *fl.Long)
				}
			}
		}
		next := disk.PageID(binary.LittleEndian.Uint32(h.Data[12:]))
		h.Unfix(false)
		if next == 0 {
			return out, nil
		}
		addr = disk.Addr{Area: addr.Area, Page: next}
	}
}

// Update rewrites a record in place when the new encoding fits where the
// old one sat (or in the page's free space); otherwise the record moves —
// the returned RID replaces the caller's handle.
func (f *File) Update(rid RID, fields []Field) (RID, error) {
	rec, err := encodeRecord(fields)
	if err != nil {
		return RID{}, err
	}
	if len(rec) > f.maxRecordBytes() {
		return RID{}, fmt.Errorf("record: %d bytes exceed the %d-byte page capacity", len(rec), f.maxRecordBytes())
	}
	addr := disk.Addr{Area: f.first.Area, Page: rid.Page}
	h, err := f.st.Pool.FixPage(addr)
	if err != nil {
		return RID{}, err
	}
	nslots := int(binary.LittleEndian.Uint16(h.Data[6:]))
	if int(rid.Slot) >= nslots || slotOff(h.Data, int(rid.Slot)) == deadOff {
		h.Unfix(false)
		return RID{}, fmt.Errorf("record: %v does not exist", rid)
	}
	oldOff := slotOff(h.Data, int(rid.Slot))
	oldLen := slotLen(h.Data, int(rid.Slot))
	freeOff := int(binary.LittleEndian.Uint16(h.Data[8:]))
	dirStart := len(h.Data) - nslots*slotDirEnt
	switch {
	case len(rec) <= oldLen:
		// Overwrite in place.
		copy(h.Data[oldOff:], rec)
		setSlot(h.Data, int(rid.Slot), uint16(oldOff), uint16(len(rec)))
		h.Unfix(true)
		return rid, f.st.Pool.FlushPage(addr)
	case freeOff+len(rec) <= dirStart:
		// Append the new image in the page's free space.
		copy(h.Data[freeOff:], rec)
		setSlot(h.Data, int(rid.Slot), uint16(freeOff), uint16(len(rec)))
		binary.LittleEndian.PutUint16(h.Data[8:], uint16(freeOff+len(rec)))
		h.Unfix(true)
		return rid, f.st.Pool.FlushPage(addr)
	default:
		// Move: tombstone here, insert elsewhere.
		setSlot(h.Data, int(rid.Slot), deadOff, 0)
		h.Unfix(true)
		if err := f.st.Pool.FlushPage(addr); err != nil {
			return RID{}, err
		}
		return f.Insert(fields)
	}
}

// Compact rewrites one page, squeezing out the space of deleted and
// superseded record images. Record offsets change but slots (and thus
// RIDs) are preserved.
func (f *File) Compact(page disk.PageID) error {
	addr := disk.Addr{Area: f.first.Area, Page: page}
	h, err := f.st.Pool.FixPage(addr)
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(h.Data[0:]) != fileMagic {
		h.Unfix(false)
		return fmt.Errorf("record: %v is not a record page", addr)
	}
	nslots := int(binary.LittleEndian.Uint16(h.Data[6:]))
	fresh := make([]byte, len(h.Data))
	copy(fresh, h.Data[:filePageHdr])
	// Preserve the slot directory region.
	copy(fresh[len(fresh)-nslots*slotDirEnt:], h.Data[len(h.Data)-nslots*slotDirEnt:])
	pos := filePageHdr
	for i := 0; i < nslots; i++ {
		off := slotOff(h.Data, i)
		if off == deadOff {
			continue
		}
		n := slotLen(h.Data, i)
		copy(fresh[pos:], h.Data[off:off+n])
		setSlot(fresh, i, uint16(pos), uint16(n))
		pos += n
	}
	binary.LittleEndian.PutUint16(fresh[8:], uint16(pos))
	copy(h.Data, fresh)
	h.Unfix(true)
	return f.st.Pool.FlushPage(addr)
}
