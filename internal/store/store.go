// Package store binds the simulated disk, the buddy space manager and the
// buffer pool into the low-level storage interface shared by the three
// large object managers.
//
// It owns the two database areas of §4.1 — one for the leaf segments that
// hold large object bytes and one for everything else (index pages, object
// roots) — and implements the byte-range segment I/O protocol of §3.2/§3.3:
//
//   - Only the pages that contain the requested bytes are transferred,
//     never the whole segment.
//   - Runs of at most Pool.MaxRun pages are read into contiguous buffer
//     pool frames with a single I/O call.
//   - Larger runs bypass the pool. When the requested byte range does not
//     match block boundaries the read becomes the paper's 3-step I/O: the
//     first and last blocks go through the pool and are copied from there
//     into the application buffer; the interior blocks move directly.
package store

import (
	"errors"
	"fmt"

	"lobstore/internal/buddy"
	"lobstore/internal/buffer"
	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/sim"
)

// Params configures a Store.
type Params struct {
	Model sim.CostModel
	Pool  buffer.Config
	// LeafAreaPages sizes the database area holding large object bytes.
	LeafAreaPages int
	// MetaAreaPages sizes the database area holding index pages and roots.
	MetaAreaPages int
	// MaxOrder is the buddy-space order; segments of up to 1<<MaxOrder
	// pages can be allocated.
	MaxOrder uint
	// Materialize stores every byte written so reads can be verified.
	Materialize bool
	// Volume selects the byte-storage backend under the cost-accounting
	// disk. Nil means a fresh in-memory volume (the simulation default); a
	// filevol.Volume makes the database durable on real files.
	Volume disk.Volume
}

// DefaultParams returns the paper's system parameters (Table 1) with area
// sizes comfortable for the 10 MB experiments.
func DefaultParams() Params {
	return Params{
		Model:         sim.DefaultModel(),
		Pool:          buffer.DefaultConfig(),
		LeafAreaPages: 64 << 10, // 256 MB of leaf space
		MetaAreaPages: 8 << 10,  // 32 MB of metadata space
		MaxOrder:      13,       // 32 MB maximum segment
		Materialize:   true,
	}
}

// Segment is a run of physically adjacent pages handed out by the buddy
// system. Object bytes are packed densely: page i of the segment holds
// bytes [i*PageSize, (i+1)*PageSize).
type Segment struct {
	Addr  disk.Addr
	Pages int32
}

func (s Segment) String() string { return fmt.Sprintf("seg{%v x%d}", s.Addr, s.Pages) }

// Store is the storage substrate under one simulated database.
type Store struct {
	Disk  *disk.Disk
	Pool  *buffer.Pool
	Clock *sim.Clock
	Leaf  *buddy.Allocator
	Meta  *buddy.Allocator
	// Obs is the database's event tracer, shared by the disk, the pool,
	// both allocators and the managers above. Always non-nil; disabled
	// (and free) until a sink is attached.
	Obs *obs.Tracer

	leafArea disk.AreaID
	maxOrder uint
	pageSize int

	// Per-operation state. The single-threaded paths run forever on the
	// permanent base state, so their behavior is exactly as before the
	// concurrent engine existed; the engine swaps a fresh OpState in per
	// client operation so operations interleaved at durability barriers
	// keep their shadow epochs and scratch buffers apart.
	base OpState
	cur  *OpState

	// retire, when set, receives the outermost EndOp's deferred frees
	// instead of the store applying them immediately. The concurrent
	// engine installs it to route frees through epoch-based reclamation:
	// pages of a superseded object version stay allocated until the last
	// snapshot reader that may still traverse them drains.
	retire func(leaf []Segment, meta []disk.Addr) error
}

// OpState is the state private to one logical operation: the shadow-epoch
// nesting depth, the frees deferred until the epoch's commit point (§3.3:
// "leaving the old one intact until it is no longer needed for recovery"),
// the scratch buffer and the staging arena. A zero OpState is ready to use.
type OpState struct {
	depth       int
	pendingLeaf []Segment
	pendingMeta []disk.Addr
	scratch     []byte
	stage       arena
}

// Reset returns the state to its zero condition while keeping the
// backing arrays, so a pooled OpState reused across operations carries
// no epoch state over but also costs no fresh allocations. A parked
// operation's pending frees are owned by that operation; Reset must only
// run after the operation has fully ended.
func (o *OpState) Reset() {
	o.depth = 0
	o.pendingLeaf = o.pendingLeaf[:0]
	o.pendingMeta = o.pendingMeta[:0]
	o.stage.reset()
	// scratch and the arena's chunks are kept: they are the whole point
	// of pooling.
}

// arena is the bump allocator behind Store.Stage. Chunks are carved in
// order and reused from the start after a reset; a chunk larger than
// arenaKeep is dropped at reset, so one large operation does not pin its
// buffers for the life of the state.
type arena struct {
	chunks [][]byte
	next   int // chunk being carved
	used   int // bytes carved from chunks[next]
}

const (
	arenaChunk = 64 << 10 // smallest chunk
	arenaKeep  = 1 << 20  // largest chunk kept across resets
)

func (a *arena) alloc(n int) []byte {
	for ; a.next < len(a.chunks); a.next, a.used = a.next+1, 0 {
		if c := a.chunks[a.next]; len(c)-a.used >= n {
			b := c[a.used : a.used+n : a.used+n]
			a.used += n
			return b
		}
	}
	// Grow geometrically so an operation's working set is covered by a
	// few chunks after the first use.
	size := arenaChunk
	if k := len(a.chunks); k > 0 {
		size = 2 * len(a.chunks[k-1])
	}
	size = max(size, n)
	a.chunks = append(a.chunks, make([]byte, size))
	a.next, a.used = len(a.chunks)-1, n
	return a.chunks[a.next][:n:n]
}

func (a *arena) reset() {
	kept := a.chunks[:0]
	for _, c := range a.chunks {
		if len(c) <= arenaKeep {
			kept = append(kept, c)
		}
	}
	clear(a.chunks[len(kept):])
	a.chunks = kept
	a.next, a.used = 0, 0
}

// op returns the current operation state, lazily bound to the permanent
// base state on first use.
func (s *Store) op() *OpState {
	if s.cur == nil {
		s.cur = &s.base
	}
	return s.cur
}

// SwapOp installs st as the current operation state and returns the
// previous one. Passing nil rebinds the store to its permanent base state.
// The concurrent engine brackets every client operation with a swap pair so
// that operations parked at a durability barrier do not share epoch state
// with the operation running meanwhile; single-threaded use never calls it.
func (s *Store) SwapOp(st *OpState) *OpState {
	prev := s.op()
	if st == nil {
		st = &s.base
	}
	s.cur = st
	return prev
}

// SetRetireHook routes the deferred frees of every outermost EndOp to fn
// instead of applying them immediately. fn runs after the EndOp durability
// barrier — the §3.3 ordering is unchanged — and must not keep either
// slice: the operation state reuses them. A nil fn restores immediate
// application.
func (s *Store) SetRetireHook(fn func(leaf []Segment, meta []disk.Addr) error) {
	s.retire = fn
}

// ApplyFrees returns deferred frees to the space managers. The concurrent
// engine calls it when epoch-based reclamation decides a retired batch can
// no longer be observed by any snapshot reader.
func (s *Store) ApplyFrees(leaf []Segment, meta []disk.Addr) error {
	for _, seg := range leaf {
		if err := s.Leaf.Free(seg.Addr, int(seg.Pages)); err != nil {
			return err
		}
	}
	for _, a := range meta {
		if err := s.Meta.Free(a, 1); err != nil {
			return err
		}
	}
	return nil
}

// Open creates a fresh simulated database.
func Open(p Params) (*Store, error) {
	clock := sim.NewClock()
	var opts []disk.Option
	if !p.Materialize {
		opts = append(opts, disk.WithoutMaterialization())
	}
	if p.Volume != nil {
		opts = append(opts, disk.WithVolume(p.Volume))
	}
	d, err := disk.New(p.Model, clock, opts...)
	if err != nil {
		return nil, err
	}
	// The tracer is installed on the disk before the pool and the
	// allocators are created: they capture it at construction so one
	// database yields one coherent event stream.
	tracer := obs.NewTracer()
	tracer.SetTimeFunc(func() int64 { return int64(clock.Now()) })
	d.SetTracer(tracer)
	metaArea, err := d.AddArea(p.MetaAreaPages)
	if err != nil {
		return nil, fmt.Errorf("store: meta area: %w", err)
	}
	leafArea, err := d.AddArea(p.LeafAreaPages)
	if err != nil {
		return nil, fmt.Errorf("store: leaf area: %w", err)
	}
	pool, err := buffer.New(d, p.Pool)
	if err != nil {
		return nil, err
	}
	leaf, err := buddy.New(d, leafArea, buddy.WithMaxOrder(p.MaxOrder))
	if err != nil {
		return nil, fmt.Errorf("store: leaf allocator: %w", err)
	}
	meta, err := buddy.New(d, metaArea, metaOrder(p.MaxOrder))
	if err != nil {
		return nil, fmt.Errorf("store: meta allocator: %w", err)
	}
	return &Store{
		Disk:     d,
		Pool:     pool,
		Clock:    clock,
		Leaf:     leaf,
		Meta:     meta,
		Obs:      tracer,
		leafArea: leafArea,
		maxOrder: p.MaxOrder,
		pageSize: p.Model.PageSize,
	}, nil
}

// PageSize returns the disk block size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// LeafSegment reconstructs a Segment in the leaf area from a stored page
// pointer and its page count. Index structures store only the 4-byte page
// number; the page count is derived by the manager owning the segment.
func (s *Store) LeafSegment(ptr uint32, npages int) Segment {
	return Segment{
		Addr:  disk.Addr{Area: s.leafArea, Page: disk.PageID(ptr)},
		Pages: int32(npages),
	}
}

// MaxSegmentPages returns the largest leaf segment the space manager
// supports.
func (s *Store) MaxSegmentPages() int { return s.Leaf.MaxSegmentPages() }

// Scratch returns a reusable buffer of at least n bytes. The buffer is
// invalidated by the next Scratch call; callers needing two live buffers
// must copy.
func (s *Store) Scratch(n int) []byte {
	o := s.op()
	if cap(o.scratch) < n {
		o.scratch = make([]byte, n)
	}
	return o.scratch[:n]
}

// Stage returns n bytes of unspecified content from the current
// operation's arena, for the buffers of a read-modify-write. Inside a
// shadow epoch a staged slice stays valid until the outermost EndOp (or
// OpState.Reset), so an operation may hold several at once; outside one,
// each Stage call recycles the arena and invalidates the previous slice.
// Unlike Scratch, no store method overwrites a staged slice.
func (s *Store) Stage(n int) []byte {
	o := s.op()
	if o.depth == 0 {
		o.stage.reset()
	}
	return o.stage.alloc(n)
}

// AllocSegment obtains a leaf segment of npages adjacent pages.
func (s *Store) AllocSegment(npages int) (Segment, error) {
	addr, err := s.Leaf.Alloc(npages)
	if err != nil {
		return Segment{}, err
	}
	return Segment{Addr: addr, Pages: int32(npages)}, nil
}

// BeginOp opens a shadow epoch: frees requested until the matching EndOp
// are deferred, so the pages of the pre-operation object version cannot be
// reallocated (and overwritten) before the operation commits. Calls nest.
func (s *Store) BeginOp() { s.op().depth++ }

// EndOp closes a shadow epoch. When the outermost epoch ends — after the
// manager has written its commit point (tree root or descriptor) — the
// deferred frees are applied. A durability barrier separates the commit
// point from the frees: on a durable volume the commit write must be
// stable before any page of the old version may be reused, or a crash
// could leave the still-referenced old version partially overwritten.
func (s *Store) EndOp() error {
	o := s.op()
	if o.depth == 0 {
		return fmt.Errorf("store: EndOp without BeginOp")
	}
	o.depth--
	if o.depth > 0 {
		return nil
	}
	o.stage.reset()
	if err := s.Disk.Barrier(); err != nil {
		return err
	}
	leaf, meta := o.pendingLeaf, o.pendingMeta
	o.pendingLeaf, o.pendingMeta = leaf[:0], meta[:0]
	if s.retire != nil && (len(leaf) > 0 || len(meta) > 0) {
		return s.retire(leaf, meta)
	}
	return s.ApplyFrees(leaf, meta)
}

// RunOp executes one update operation inside a shadow epoch: deferred
// frees apply only after f returns, i.e. after the operation's commit
// point has been written.
func (s *Store) RunOp(f func() error) error {
	s.BeginOp()
	err := f()
	if e := s.EndOp(); err == nil {
		err = e
	}
	return err
}

// Op runs f as one public mutation of a large object: a shadow epoch
// (RunOp) inside an observability span, so frees apply only after f's
// commit point and every event f causes is tagged with kind.
func (s *Store) Op(kind obs.Op, f func() error) error {
	sp := s.Obs.Begin(kind)
	err := s.RunOp(f)
	s.Obs.End(sp, err)
	return err
}

// FreeSegment releases a whole leaf segment and discards any buffered
// pages. Inside a shadow epoch the space is reclaimed only at EndOp.
func (s *Store) FreeSegment(seg Segment) error {
	if err := s.Pool.DropRange(seg.Addr, int(seg.Pages)); err != nil {
		return err
	}
	if o := s.op(); o.depth > 0 {
		o.pendingLeaf = append(o.pendingLeaf, seg)
		return nil
	}
	return s.Leaf.Free(seg.Addr, int(seg.Pages))
}

// TrimSegment frees the tail of seg, keeping the first keepPages pages, and
// returns the trimmed segment. EOS uses this to shrink a segment in place.
func (s *Store) TrimSegment(seg Segment, keepPages int) (Segment, error) {
	if keepPages <= 0 || keepPages > int(seg.Pages) {
		return Segment{}, fmt.Errorf("store: trim to %d of %d pages", keepPages, seg.Pages)
	}
	if keepPages == int(seg.Pages) {
		return seg, nil
	}
	tail := seg.Addr.Add(keepPages)
	n := int(seg.Pages) - keepPages
	if err := s.Pool.DropRange(tail, n); err != nil {
		return Segment{}, err
	}
	if o := s.op(); o.depth > 0 {
		o.pendingLeaf = append(o.pendingLeaf, Segment{Addr: tail, Pages: int32(n)})
	} else if err := s.Leaf.Free(tail, n); err != nil {
		return Segment{}, err
	}
	seg.Pages = int32(keepPages)
	return seg, nil
}

// AllocMetaPage obtains one metadata page (index node, object root).
func (s *Store) AllocMetaPage() (disk.Addr, error) { return s.Meta.Alloc(1) }

// FreeMetaPage releases a metadata page and discards any buffered copy.
// Inside a shadow epoch the page is reclaimed only at EndOp.
func (s *Store) FreeMetaPage(a disk.Addr) error {
	if err := s.Pool.DropRange(a, 1); err != nil {
		return err
	}
	if o := s.op(); o.depth > 0 {
		o.pendingMeta = append(o.pendingMeta, a)
		return nil
	}
	return s.Meta.Free(a, 1)
}

// ReadRange reads len(dst) object bytes starting at byte offset off within
// seg, following the hybrid buffering policy.
func (s *Store) ReadRange(seg Segment, off int64, dst []byte) error {
	n := int64(len(dst))
	if n == 0 {
		return nil
	}
	P := int64(s.pageSize)
	if off < 0 || off+n > int64(seg.Pages)*P {
		return fmt.Errorf("store: read [%d,+%d) outside %v", off, n, seg)
	}
	first := int(off / P)
	last := int((off + n - 1) / P)
	k := last - first + 1
	base := seg.Addr.Add(first)

	if k <= s.Pool.MaxRun() {
		hs, err := s.Pool.FixRun(base, k)
		switch {
		case err == nil:
			for i, h := range hs {
				pageStart := (int64(first) + int64(i)) * P
				copyOverlap(dst, off, h.Data, pageStart, P)
			}
			buffer.UnfixAll(hs, false)
			return nil
		case errors.Is(err, buffer.ErrNoRun):
			// fall through to the unbuffered path
		default:
			return err
		}
	}

	// Unbuffered path with 3-step boundary handling.
	leftPartial := off%P != 0
	rightPartial := (off+n)%P != 0
	midFirst, midLast := first, last
	if leftPartial {
		if err := s.readPageCopy(seg.Addr.Add(first), dst, off, int64(first)*P); err != nil {
			return err
		}
		midFirst++
	}
	if rightPartial && last >= midFirst {
		if err := s.readPageCopy(seg.Addr.Add(last), dst, off, int64(last)*P); err != nil {
			return err
		}
		midLast--
	}
	if midLast >= midFirst {
		count := midLast - midFirst + 1
		pos := int64(midFirst)*P - off
		if err := s.readDirect(seg.Addr.Add(midFirst), count, dst[pos:pos+int64(count)*P]); err != nil {
			return err
		}
	}
	return nil
}

// readPageCopy fetches one page (through the pool when possible) and copies
// its overlap with the destination byte range.
func (s *Store) readPageCopy(a disk.Addr, dst []byte, dstOff, pageStart int64) error {
	h, err := s.Pool.FixPage(a)
	if err == nil {
		copyOverlap(dst, dstOff, h.Data, pageStart, int64(s.pageSize))
		h.Unfix(false)
		return nil
	}
	if !errors.Is(err, buffer.ErrNoRun) {
		return err
	}
	buf := s.Scratch(s.pageSize)
	if err := s.readDirect(a, 1, buf); err != nil {
		return err
	}
	copyOverlap(dst, dstOff, buf, pageStart, int64(s.pageSize))
	return nil
}

// readDirect reads npages adjacent pages straight into dst with one I/O,
// first flushing any dirty buffered copies so the disk image is current.
func (s *Store) readDirect(a disk.Addr, npages int, dst []byte) error {
	for i := 0; i < npages; i++ {
		if err := s.Pool.FlushPage(a.Add(i)); err != nil {
			return err
		}
	}
	return s.Disk.Read(a, npages, dst)
}

// copyOverlap copies the intersection of dst bytes [dstOff, dstOff+len(dst))
// and page bytes [pageStart, pageStart+pageLen) — both expressed in segment
// byte coordinates — from the page buffer into dst.
func copyOverlap(dst []byte, dstOff int64, page []byte, pageStart, pageLen int64) {
	lo := dstOff
	if pageStart > lo {
		lo = pageStart
	}
	hi := dstOff + int64(len(dst))
	if pageStart+pageLen < hi {
		hi = pageStart + pageLen
	}
	if hi <= lo {
		return
	}
	copy(dst[lo-dstOff:hi-dstOff], page[lo-pageStart:hi-pageStart])
}

// WritePages writes npages adjacent pages from src with one I/O call,
// discarding any stale buffered copies first. This is how segments are
// written from application space: a single sequential write of exactly the
// dirty blocks (§3.4).
func (s *Store) WritePages(a disk.Addr, npages int, src []byte) error {
	if err := s.Pool.DropRange(a, npages); err != nil {
		return err
	}
	return s.Disk.Write(a, npages, src)
}

// WriteFresh writes data to freshly allocated pages starting at a: one I/O
// over exactly the pages that hold data, the tail of the last page zeroed.
func (s *Store) WriteFresh(a disk.Addr, data []byte) error {
	npages := (len(data) + s.pageSize - 1) / s.pageSize
	buf := s.Scratch(npages * s.pageSize)
	copy(buf, data)
	clear(buf[len(data):])
	return s.WritePages(a, npages, buf)
}

// WriteRange writes data at byte offset off within seg. Whole pages covered
// by the range are written from src; partial boundary pages are first read
// (read-modify-write), all in minimal I/O calls. Returns the number of I/O
// calls used. Managers use this for in-place appends where the existing
// partial page must be completed.
func (s *Store) WriteRange(seg Segment, off int64, src []byte) error {
	n := int64(len(src))
	if n == 0 {
		return nil
	}
	P := int64(s.pageSize)
	if off < 0 || off+n > int64(seg.Pages)*P {
		return fmt.Errorf("store: write [%d,+%d) outside %v", off, n, seg)
	}
	first := int(off / P)
	last := int((off + n - 1) / P)
	count := last - first + 1
	buf := s.Scratch(count * s.pageSize)
	// Read-modify-write the partial boundary pages.
	if off%P != 0 {
		if err := s.readPageInto(seg.Addr.Add(first), buf[:s.pageSize]); err != nil {
			return err
		}
	}
	if (off+n)%P != 0 && last != first {
		if err := s.readPageInto(seg.Addr.Add(last), buf[(count-1)*s.pageSize:]); err != nil {
			return err
		}
	}
	pos := off - int64(first)*P
	copy(buf[pos:pos+n], src)
	return s.WritePages(seg.Addr.Add(first), count, buf)
}

// readPageInto fetches one page into dst, using a buffered copy when
// resident (free) or one disk read otherwise.
func (s *Store) readPageInto(a disk.Addr, dst []byte) error {
	h, err := s.Pool.FixPage(a)
	if err == nil {
		copy(dst, h.Data)
		h.Unfix(false)
		return nil
	}
	if !errors.Is(err, buffer.ErrNoRun) {
		return err
	}
	return s.readDirect(a, 1, dst)
}

// SyncBarrier forces every byte written so far to stable storage, subject
// to the volume's sync policy. Free (and event-silent) on the in-memory
// backend, so barrier placement never changes mem-backend cost output. On
// a file backend this call may be acknowledged by another committer's
// shared fsync (group commit); either way it returns only once everything
// written before it is durable, which is all the §3.3 protocol relies on.
func (s *Store) SyncBarrier() error { return s.Disk.Barrier() }

// Flush writes back everything the store holds only in memory: dirty
// buffer pool frames and the two space-manager directories. After Flush
// (plus a SyncBarrier on durable volumes) the on-disk state is complete.
func (s *Store) Flush() error {
	if err := s.Pool.FlushAll(); err != nil {
		return err
	}
	if err := s.Meta.Flush(); err != nil {
		return err
	}
	return s.Leaf.Flush()
}

// Close flushes the store and releases the underlying volume. The store is
// unusable afterwards.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		// Still release the files; report the flush failure first.
		return errors.Join(err, s.Disk.Close())
	}
	if err := s.Disk.Barrier(); err != nil {
		return errors.Join(err, s.Disk.Close())
	}
	return s.Disk.Close()
}

// MeasureOp runs f and returns the disk activity it caused. Only tests call
// it, but it lives here rather than in internal/lobtest: store's own
// in-package tests use it and cannot import lobtest, which imports store,
// and the tests of four packages share it.
func (s *Store) MeasureOp(f func() error) (sim.Stats, error) {
	before := s.Disk.Stats()
	err := f()
	return s.Disk.Stats().Sub(before), err
}
