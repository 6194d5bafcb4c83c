package postree

import (
	"errors"
	"fmt"

	"lobstore/internal/buffer"
	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/store"
)

// ErrEmpty is returned when searching an object that holds no bytes.
var ErrEmpty = errors.New("postree: object is empty")

// Step records one hop of a root-to-leaf descent: the index page visited
// and the pair index followed (or, at the last step, the pair of the data
// segment itself).
type Step struct {
	Addr disk.Addr
	Idx  int
}

// Path is a root-to-level-0 descent. path[0] is always the root.
type Path []Step

// Tree is a positional tree over data segments. One Tree indexes one large
// object; its root page never moves.
type Tree struct {
	st   *store.Store
	root disk.Addr

	rootCap int
	nodeCap int

	height      int   // root level: number of index levels below the root
	size        int64 // cached object size (root's rightmost count)
	nLeaves     int   // number of level-0 entries (data segments)
	nIndexPages int   // root + interior pages currently allocated

	dirty     map[disk.Addr]*dirtyRec
	rootDirty bool

	// steps backs every path Find, NextLeaf and PrevLeaf return. Find
	// recycles it, so such a path stays valid until the next Find (or
	// Rightmost) on this tree: each update descends afresh, and
	// operations on one object are serialized by the engine.
	steps []Step
	// flushItems is FlushOp's work list, kept for its capacity.
	flushItems []flushItem
}

type dirtyRec struct {
	level  int
	parent disk.Addr
	isNew  bool // created this operation; flushed without relocation
}

// New allocates a fresh, empty tree. The root is placed in a page with no
// other objects in it (§4.1).
func New(st *store.Store) (*Tree, error) {
	rootAddr, err := st.AllocMetaPage()
	if err != nil {
		return nil, err
	}
	h, err := st.Pool.FixNew(rootAddr)
	if err != nil {
		return nil, err
	}
	initRootPage(h.Data)
	n := wrapNode(h.Data, true)
	n.setLevel(0)
	n.setNPairs(0)
	h.Unfix(true)
	t := &Tree{
		st:          st,
		root:        rootAddr,
		nIndexPages: 1,
		dirty:       make(map[disk.Addr]*dirtyRec),
		rootDirty:   true,
	}
	t.computeCaps()
	return t, nil
}

// Open attaches to an existing tree whose root page is at rootAddr,
// rebuilding the in-memory summary (size, height, leaf and page counts).
func Open(st *store.Store, rootAddr disk.Addr) (*Tree, error) {
	t := &Tree{
		st:    st,
		root:  rootAddr,
		dirty: make(map[disk.Addr]*dirtyRec),
	}
	t.computeCaps()
	h, n, err := t.fix(rootAddr)
	if err != nil {
		return nil, err
	}
	if err := checkRootPage(h.Data); err != nil {
		h.Unfix(false)
		return nil, err
	}
	t.height = n.level()
	t.size = n.total()
	h.Unfix(false)
	t.nIndexPages = 1
	t.nLeaves = 0
	err = t.walkNodes(rootAddr, t.height, func(nd node, level int) error {
		if level > 0 {
			t.nIndexPages += nd.npairs()
		} else {
			t.nLeaves += nd.npairs()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// walkNodes counted each interior node once via its parent; the root was
	// seeded above, so the tally is complete.
	return t, nil
}

func (t *Tree) computeCaps() {
	ps := t.st.PageSize()
	t.rootCap = (ps - rootHdrSize - nodeHdrSize) / pairSize
	t.nodeCap = (ps - nodeHdrSize) / pairSize
}

// Root returns the address of the (immovable) root page.
func (t *Tree) Root() disk.Addr { return t.root }

// SetAnnotation stores up to AnnotationSize manager-owned bytes in the root
// page header; they persist with the tree and survive Open.
func (t *Tree) SetAnnotation(data []byte) error {
	if len(data) > AnnotationSize {
		return fmt.Errorf("postree: annotation of %d bytes exceeds %d", len(data), AnnotationSize)
	}
	h, err := t.st.Pool.FixPage(t.root)
	if err != nil {
		return err
	}
	region := h.Data[annotationOff : annotationOff+AnnotationSize]
	clear(region)
	copy(region, data)
	h.Unfix(true)
	t.rootDirty = true
	return nil
}

// Annotation returns a copy of the manager-owned root header bytes.
func (t *Tree) Annotation() ([]byte, error) {
	h, err := t.st.Pool.FixPage(t.root)
	if err != nil {
		return nil, err
	}
	out := append([]byte{}, h.Data[annotationOff:annotationOff+AnnotationSize]...)
	h.Unfix(false)
	return out, nil
}

// Size returns the object size in bytes.
func (t *Tree) Size() int64 { return t.size }

// Height returns the number of index levels below the root; 0 means the
// root's pairs point directly at data segments.
func (t *Tree) Height() int { return t.height }

// LeafCount returns the number of data segments the tree points at.
func (t *Tree) LeafCount() int { return t.nLeaves }

// IndexPages returns the number of index pages (root included).
func (t *Tree) IndexPages() int { return t.nIndexPages }

// capAt returns the pair capacity of the node at the given path depth.
func (t *Tree) capAt(depth int) int {
	if depth == 0 {
		return t.rootCap
	}
	return t.nodeCap
}

// minFill is the minimum pair count of a non-root node.
func (t *Tree) minFill() int { return t.nodeCap / 2 }

// fix pins an index page and wraps it as a node, validating the header so
// a corrupted page surfaces as an error instead of out-of-range accesses.
func (t *Tree) fix(a disk.Addr) (*buffer.Handle, node, error) {
	h, err := t.st.Pool.FixPage(a)
	if err != nil {
		return nil, node{}, fmt.Errorf("postree: fixing index page %v: %w", a, err)
	}
	n := wrapNode(h.Data, a == t.root)
	if n.npairs() > n.cap || n.level() > 32 {
		h.Unfix(false)
		return nil, node{}, fmt.Errorf("postree: corrupted index page %v: %d pairs (cap %d), level %d",
			a, n.npairs(), n.cap, n.level())
	}
	return h, n, nil
}

// Find locates the data segment containing byte offset off. It returns the
// entry, the object offset of the entry's first byte, and the descent path,
// which is valid until the next Find.
func (t *Tree) Find(off int64) (Entry, int64, Path, error) {
	if t.size == 0 {
		return Entry{}, 0, nil, ErrEmpty
	}
	if off < 0 || off >= t.size {
		return Entry{}, 0, nil, fmt.Errorf("postree: offset %d outside object of %d bytes", off, t.size)
	}
	path := Path(t.steps[:0])
	addr := t.root
	pos := off
	skipped := int64(0)
	for {
		h, n, err := t.fix(addr)
		if err != nil {
			return Entry{}, 0, nil, err
		}
		i := n.findChild(pos)
		path = append(path, Step{Addr: addr, Idx: i})
		before := n.count(i - 1)
		pos -= before
		skipped += before
		level := n.level()
		e := Entry{Bytes: n.bytes(i), Ptr: n.ptr(i)}
		h.Unfix(false)
		if level == 0 {
			if t.st.Obs.Enabled() {
				t.st.Obs.Emit(obs.Event{
					Kind: obs.KindDescend,
					Area: uint8(t.root.Area),
					Page: uint32(t.root.Page),
					Aux1: int64(len(path)),
				})
			}
			t.steps = path
			return e, skipped, path[:len(path):len(path)], nil
		}
		addr = disk.Addr{Area: t.root.Area, Page: disk.PageID(e.Ptr)}
	}
}

// Rightmost returns the last data segment entry and its path. The returned
// start offset is the object offset of the entry's first byte.
func (t *Tree) Rightmost() (Entry, int64, Path, error) {
	if t.nLeaves == 0 {
		return Entry{}, 0, nil, ErrEmpty
	}
	return t.Find(t.size - 1)
}

// EntryAt re-reads the entry a path points at.
func (t *Tree) EntryAt(path Path) (Entry, error) {
	last := path[len(path)-1]
	h, n, err := t.fix(last.Addr)
	if err != nil {
		return Entry{}, err
	}
	defer h.Unfix(false)
	if last.Idx >= n.npairs() {
		return Entry{}, fmt.Errorf("postree: stale path: index %d of %d pairs", last.Idx, n.npairs())
	}
	return Entry{Bytes: n.bytes(last.Idx), Ptr: n.ptr(last.Idx)}, nil
}

// NextLeaf steps a path to the following data segment entry. ok is false at
// the end of the object. The input path is not modified; the returned one
// is valid until the next Find.
func (t *Tree) NextLeaf(path Path) (Entry, Path, bool, error) {
	return t.stepLeaf(t.keep(path), +1)
}

// PrevLeaf steps a path to the preceding data segment entry. ok is false at
// the start of the object. The input path is not modified; the returned
// one is valid until the next Find.
func (t *Tree) PrevLeaf(path Path) (Entry, Path, bool, error) {
	return t.stepLeaf(t.keep(path), -1)
}

// keep copies p into the tree's path buffer.
func (t *Tree) keep(p Path) Path {
	n := len(t.steps)
	t.steps = append(t.steps, p...)
	return t.steps[n:len(t.steps):len(t.steps)]
}

// NextLeafInPlace is NextLeaf without the defensive copy: the returned
// path is the input path, advanced in place (a step never changes path
// length). For callers that own the path and do not need the previous
// position — the sequential read loop. When ok is false the path is
// untouched.
func (t *Tree) NextLeafInPlace(path Path) (Entry, Path, bool, error) {
	return t.stepLeaf(path, +1)
}

// stepLeaf advances np in place; callers that need the input preserved
// pass a copy.
func (t *Tree) stepLeaf(np Path, dir int) (Entry, Path, bool, error) {
	// Climb until a sideways step is possible.
	d := len(np) - 1
	for ; d >= 0; d-- {
		h, n, err := t.fix(np[d].Addr)
		if err != nil {
			return Entry{}, nil, false, err
		}
		cnt := n.npairs()
		h.Unfix(false)
		ni := np[d].Idx + dir
		if ni >= 0 && ni < cnt {
			np[d].Idx = ni
			break
		}
	}
	if d < 0 {
		return Entry{}, nil, false, nil
	}
	// Descend along the near edge.
	for lvl := d; lvl < len(np)-1; lvl++ {
		h, n, err := t.fix(np[lvl].Addr)
		if err != nil {
			return Entry{}, nil, false, err
		}
		child := disk.Addr{Area: t.root.Area, Page: disk.PageID(n.ptr(np[lvl].Idx))}
		h.Unfix(false)
		np[lvl+1].Addr = child
		ch, cn, err := t.fix(child)
		if err != nil {
			return Entry{}, nil, false, err
		}
		if dir > 0 {
			np[lvl+1].Idx = 0
		} else {
			np[lvl+1].Idx = cn.npairs() - 1
		}
		ch.Unfix(false)
	}
	e, err := t.EntryAt(np)
	if err != nil {
		return Entry{}, nil, false, err
	}
	return e, np, true, nil
}

// Walk visits every data segment entry in object order. The callback
// returns false to stop early. Walking reads index pages through the pool
// and therefore charges I/O exactly like a client scan would.
func (t *Tree) Walk(fn func(e Entry) bool) error {
	stop := errors.New("stop")
	err := t.walkNodes(t.root, t.height, func(n node, level int) error {
		if level != 0 {
			return nil
		}
		for i := 0; i < n.npairs(); i++ {
			if !fn(Entry{Bytes: n.bytes(i), Ptr: n.ptr(i)}) {
				return stop
			}
		}
		return nil
	})
	if errors.Is(err, stop) {
		return nil
	}
	return err
}

// walkNodes runs fn on every index node, top-down, left-to-right. fn sees
// the node while it is fixed.
func (t *Tree) walkNodes(addr disk.Addr, level int, fn func(n node, level int) error) error {
	h, n, err := t.fix(addr)
	if err != nil {
		return err
	}
	if err := fn(n, level); err != nil {
		h.Unfix(false)
		return err
	}
	if level == 0 {
		h.Unfix(false)
		return nil
	}
	children := make([]uint32, n.npairs())
	for i := range children {
		children[i] = n.ptr(i)
	}
	h.Unfix(false)
	for _, c := range children {
		child := disk.Addr{Area: t.root.Area, Page: disk.PageID(c)}
		if err := t.walkNodes(child, level-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// Destroy frees every index page, invoking freeLeaf for each data segment
// entry so the manager can release the segments themselves.
func (t *Tree) Destroy(freeLeaf func(e Entry) error) error {
	var addrs []disk.Addr
	var leafErr error
	err := t.walkNodes(t.root, t.height, func(n node, level int) error {
		if level == 0 && freeLeaf != nil {
			for i := 0; i < n.npairs(); i++ {
				if err := freeLeaf(Entry{Bytes: n.bytes(i), Ptr: n.ptr(i)}); err != nil {
					leafErr = err
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		if leafErr != nil {
			return leafErr
		}
		return err
	}
	// Collect the interior page addresses, then free them all.
	addrs = append(addrs, t.root)
	if t.height > 0 {
		if err := t.collectPages(t.root, t.height, &addrs); err != nil {
			return err
		}
	}
	for _, a := range addrs {
		if err := t.st.FreeMetaPage(a); err != nil {
			return err
		}
	}
	t.nIndexPages = 0
	t.nLeaves = 0
	t.size = 0
	t.dirty = make(map[disk.Addr]*dirtyRec)
	t.rootDirty = false
	return nil
}

func (t *Tree) collectPages(addr disk.Addr, level int, out *[]disk.Addr) error {
	h, n, err := t.fix(addr)
	if err != nil {
		return err
	}
	children := make([]uint32, n.npairs())
	for i := range children {
		children[i] = n.ptr(i)
	}
	h.Unfix(false)
	for _, c := range children {
		child := disk.Addr{Area: t.root.Area, Page: disk.PageID(c)}
		*out = append(*out, child)
		if level-1 > 0 {
			if err := t.collectPages(child, level-1, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckInvariants validates structural invariants: count consistency at
// every level, half-full interior nodes, and the cached summary fields.
// Intended for tests; it reads pages without charging extra semantics.
func (t *Tree) CheckInvariants() error {
	leaves := 0
	pages := 0
	var check func(addr disk.Addr, level int, isRoot bool) (int64, error)
	check = func(addr disk.Addr, level int, isRoot bool) (int64, error) {
		h, n, err := t.fix(addr)
		if err != nil {
			return 0, err
		}
		defer h.Unfix(false)
		pages++
		if n.level() != level {
			return 0, fmt.Errorf("postree: node %v level %d, expected %d", addr, n.level(), level)
		}
		np := n.npairs()
		if !isRoot && np < t.minFill() {
			return 0, fmt.Errorf("postree: node %v underfull: %d < %d", addr, np, t.minFill())
		}
		if isRoot && level > 0 && np < 2 {
			return 0, fmt.Errorf("postree: interior root with %d pairs", np)
		}
		prev := int64(0)
		for i := 0; i < np; i++ {
			c := n.count(i)
			if c <= prev {
				return 0, fmt.Errorf("postree: node %v counts not strictly increasing at %d", addr, i)
			}
			prev = c
		}
		if level == 0 {
			leaves += np
			return n.total(), nil
		}
		var sum int64
		for i := 0; i < np; i++ {
			child := disk.Addr{Area: t.root.Area, Page: disk.PageID(n.ptr(i))}
			want := n.bytes(i)
			got, err := check(child, level-1, false)
			if err != nil {
				return 0, err
			}
			if got != want {
				return 0, fmt.Errorf("postree: node %v pair %d says %d bytes, subtree has %d", addr, i, want, got)
			}
			sum += got
		}
		return sum, nil
	}
	total, err := check(t.root, t.height, true)
	if err != nil {
		return err
	}
	if total != t.size {
		return fmt.Errorf("postree: cached size %d, tree holds %d", t.size, total)
	}
	if leaves != t.nLeaves {
		return fmt.Errorf("postree: cached leaf count %d, tree has %d", t.nLeaves, leaves)
	}
	if pages != t.nIndexPages {
		return fmt.Errorf("postree: cached page count %d, tree has %d", t.nIndexPages, pages)
	}
	return nil
}
