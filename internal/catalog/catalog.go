// Package catalog implements a minimal persistent directory of named large
// objects: the glue that lets a reopened file-backed store find its
// objects again. Entries map a name to the owning manager kind and the object's
// durable root page (tree root for ESM/EOS, descriptor page for
// Starburst).
//
// The catalog lives in a chain of metadata pages. The first catalog page
// is always the first page allocated from the metadata area of a fresh
// database, so it needs no bootstrap pointer.
package catalog

import (
	"encoding/binary"
	"fmt"

	"lobstore/internal/disk"
	"lobstore/internal/store"
)

// Kind identifies the manager owning an object.
type Kind byte

// Manager kinds. The values match the managers' root annotations.
const (
	KindESM       Kind = 'E'
	KindStarburst Kind = 'S'
	KindEOS       Kind = 'O'
	KindRecord    Kind = 'R'
)

func (k Kind) String() string {
	switch k {
	case KindESM:
		return "esm"
	case KindStarburst:
		return "starburst"
	case KindEOS:
		return "eos"
	case KindRecord:
		return "records"
	}
	return fmt.Sprintf("Kind(%d)", byte(k))
}

// Entry is one catalog record.
type Entry struct {
	Name string
	Kind Kind
	Root disk.Addr
}

// Page layout:
//
//	magic(4) version(2) nentries(2) nextPage(4) pad(4)
//	entries: used(1) kind(1) nameLen(1) pad(1) rootArea(1) pad(3)
//	         rootPage(4) name[48]  → 60 bytes per slot
const (
	pageHdrSize = 16
	slotSize    = 60
	// MaxNameLen bounds object names.
	MaxNameLen = 48

	catMagic   = 0x4C4F4243 // "LOBC"
	catVersion = 1
)

// Catalog is an open handle on the object directory.
type Catalog struct {
	st    *store.Store
	first disk.Addr
}

// slotsPerPage returns the entry capacity of one catalog page.
func (c *Catalog) slotsPerPage() int {
	return (c.st.PageSize() - pageHdrSize) / slotSize
}

// New creates the catalog in a fresh database. It must be the very first
// metadata allocation so the catalog can later be found without a
// bootstrap pointer.
func New(st *store.Store) (*Catalog, error) {
	addr, err := st.AllocMetaPage()
	if err != nil {
		return nil, err
	}
	c := &Catalog{st: st, first: addr}
	h, err := st.Pool.FixNew(addr)
	if err != nil {
		return nil, err
	}
	initCatalogPage(h.Data)
	h.Unfix(true)
	if err := st.Pool.FlushPage(addr); err != nil {
		return nil, err
	}
	return c, nil
}

// Open attaches to the catalog of a reopened database.
func Open(st *store.Store, addr disk.Addr) (*Catalog, error) {
	c := &Catalog{st: st, first: addr}
	h, err := st.Pool.FixPage(addr)
	if err != nil {
		return nil, err
	}
	defer h.Unfix(false)
	if binary.LittleEndian.Uint32(h.Data[0:]) != catMagic {
		return nil, fmt.Errorf("catalog: page %v is not a catalog page", addr)
	}
	if v := binary.LittleEndian.Uint16(h.Data[4:]); v != catVersion {
		return nil, fmt.Errorf("catalog: version %d unsupported", v)
	}
	return c, nil
}

// Root returns the first catalog page address.
func (c *Catalog) Root() disk.Addr { return c.first }

func initCatalogPage(page []byte) {
	clear(page)
	binary.LittleEndian.PutUint32(page[0:], catMagic)
	binary.LittleEndian.PutUint16(page[4:], catVersion)
}

// slot views one entry slot of a catalog page.
func slot(page []byte, i int) []byte {
	off := pageHdrSize + i*slotSize
	return page[off : off+slotSize]
}

func slotUsed(s []byte) bool { return s[0] == 1 }

func decodeSlot(s []byte) Entry {
	n := int(s[2])
	return Entry{
		Name: string(s[12 : 12+n]),
		Kind: Kind(s[1]),
		Root: disk.Addr{Area: disk.AreaID(s[4]), Page: disk.PageID(binary.LittleEndian.Uint32(s[8:]))},
	}
}

func encodeSlot(s []byte, e Entry) {
	clear(s)
	s[0] = 1
	s[1] = byte(e.Kind)
	s[2] = byte(len(e.Name))
	s[4] = byte(e.Root.Area)
	binary.LittleEndian.PutUint32(s[8:], uint32(e.Root.Page))
	copy(s[12:], e.Name)
}

// validateName rejects unusable object names.
func validateName(name string) error {
	if name == "" || len(name) > MaxNameLen {
		return fmt.Errorf("catalog: name must be 1-%d bytes", MaxNameLen)
	}
	return nil
}

// Put records a new object. It fails if the name exists.
func (c *Catalog) Put(e Entry) error {
	if err := validateName(e.Name); err != nil {
		return err
	}
	if _, ok, err := c.Get(e.Name); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("catalog: object %q already exists", e.Name)
	}
	addr := c.first
	for {
		h, err := c.st.Pool.FixPage(addr)
		if err != nil {
			return err
		}
		for i := 0; i < c.slotsPerPage(); i++ {
			s := slot(h.Data, i)
			if !slotUsed(s) {
				encodeSlot(s, e)
				h.Unfix(true)
				return c.commitPage(addr)
			}
		}
		next := disk.PageID(binary.LittleEndian.Uint32(h.Data[8:]))
		if next != 0 {
			h.Unfix(false)
			addr = disk.Addr{Area: addr.Area, Page: next}
			continue
		}
		// Chain a new page: write it before the predecessor's pointer so a
		// crash between the two writes never leaves a dangling chain.
		newAddr, err := c.st.AllocMetaPage()
		if err != nil {
			h.Unfix(false)
			return err
		}
		nh, err := c.st.Pool.FixNew(newAddr)
		if err != nil {
			h.Unfix(false)
			return err
		}
		initCatalogPage(nh.Data)
		encodeSlot(slot(nh.Data, 0), e)
		nh.Unfix(true)
		if err := c.st.Pool.FlushPage(newAddr); err != nil {
			h.Unfix(false)
			return err
		}
		// commitPage's first barrier makes the new chain page (and the
		// object it names) durable before the pointer makes it reachable.
		binary.LittleEndian.PutUint32(h.Data[8:], uint32(newAddr.Page))
		h.Unfix(true)
		return c.commitPage(addr)
	}
}

// commitPage writes the catalog page at addr, which commits a Put or a
// Delete, between two barriers: the first orders it after everything the
// operation wrote so far (the object's own pages must be durable before
// its name appears), the second makes it durable before the call returns.
func (c *Catalog) commitPage(addr disk.Addr) error {
	if err := c.st.SyncBarrier(); err != nil {
		return err
	}
	if err := c.st.Pool.FlushPage(addr); err != nil {
		return err
	}
	return c.st.SyncBarrier()
}

// walk visits every used slot; fn returns true to keep going. The visited
// page address and slot index allow in-place mutation by callers.
func (c *Catalog) walk(fn func(addr disk.Addr, i int, e Entry) (bool, error)) error {
	addr := c.first
	for {
		h, err := c.st.Pool.FixPage(addr)
		if err != nil {
			return err
		}
		var next disk.PageID
		for i := 0; i < c.slotsPerPage(); i++ {
			s := slot(h.Data, i)
			if !slotUsed(s) {
				continue
			}
			e := decodeSlot(s)
			cont, err := fn(addr, i, e)
			if err != nil || !cont {
				h.Unfix(false)
				return err
			}
		}
		next = disk.PageID(binary.LittleEndian.Uint32(h.Data[8:]))
		h.Unfix(false)
		if next == 0 {
			return nil
		}
		addr = disk.Addr{Area: addr.Area, Page: next}
	}
}

// Get looks up an object by name.
func (c *Catalog) Get(name string) (Entry, bool, error) {
	var out Entry
	found := false
	err := c.walk(func(_ disk.Addr, _ int, e Entry) (bool, error) {
		if e.Name == name {
			out, found = e, true
			return false, nil
		}
		return true, nil
	})
	return out, found, err
}

// Delete removes an object's entry. Deleting a missing name is an error so
// callers notice stale handles.
func (c *Catalog) Delete(name string) error {
	var where *disk.Addr
	var slotIdx int
	err := c.walk(func(addr disk.Addr, i int, e Entry) (bool, error) {
		if e.Name == name {
			a := addr
			where, slotIdx = &a, i
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	if where == nil {
		return fmt.Errorf("catalog: no object named %q", name)
	}
	h, err := c.st.Pool.FixPage(*where)
	if err != nil {
		return err
	}
	clear(slot(h.Data, slotIdx))
	h.Unfix(true)
	return c.commitPage(*where)
}

// List returns every entry in catalog order.
func (c *Catalog) List() ([]Entry, error) {
	var out []Entry
	err := c.walk(func(_ disk.Addr, _ int, e Entry) (bool, error) {
		out = append(out, e)
		return true, nil
	})
	return out, err
}

// MarkPages reports every catalog chain page for shadow recovery.
func (c *Catalog) MarkPages(mark func(addr disk.Addr, pages int) error) error {
	addr := c.first
	for {
		if err := mark(addr, 1); err != nil {
			return err
		}
		h, err := c.st.Pool.FixPage(addr)
		if err != nil {
			return err
		}
		next := disk.PageID(binary.LittleEndian.Uint32(h.Data[8:]))
		h.Unfix(false)
		if next == 0 {
			return nil
		}
		addr = disk.Addr{Area: addr.Area, Page: next}
	}
}
