// Package buffer implements the page buffer pool of §3.2.
//
// The pool is a small arena of page frames (the paper uses 12). Clients fix
// a page to obtain a pointer into the pool and must unfix it when done,
// telling the pool whether they dirtied it. Multi-block segments up to
// MaxRun pages can be read with a single I/O call into physically adjacent
// frames; larger segments are not buffered at all — the large object
// managers move them between disk and "application space" directly, using
// the 3-step boundary-mismatch protocol implemented in package store.
//
// Eviction frees the least recently used clean pages first, followed by
// dirty pages, which are written back to disk (one I/O each).
package buffer

import (
	"errors"
	"fmt"
	"sort"

	"lobstore/internal/disk"
	"lobstore/internal/obs"
)

// ErrNoRun is returned by FixRun when no window of adjacent unpinned frames
// is available. Callers fall back to unbuffered I/O.
var ErrNoRun = errors.New("buffer: no contiguous unpinned frame run available")

// Pool is a buffer pool over one simulated disk. Not safe for concurrent
// use (the simulation is single-threaded).
type Pool struct {
	d        *disk.Disk
	obs      *obs.Tracer
	arena    []byte
	frames   []frame
	index    map[disk.Addr]int // resident page → frame number
	tick     int64
	maxRun   int
	pageSize int

	// runIdx is residentRun's scratch space (maxRun entries), reused across
	// calls so the multi-block hit path allocates nothing for the probe.
	runIdx []int

	// Victim selection (scanWindow): age orders the frames by use; seen and
	// seenGen mark the frames tier 1 has passed in the current search; deque
	// is tier 2's scratch, a monotonic deque of frame indices maintaining
	// the sliding-window recency maximum.
	age     ageList
	seen    []uint32
	seenGen uint32
	deque   []int

	// hfree recycles Handle structs: Unfix pushes, the Fix* paths pop, so
	// steady-state fixing allocates nothing. The pool is single-threaded
	// (the concurrent engine serializes all store work under one mutex),
	// so a plain slice suffices. Capacity-bounded: excess handles are
	// dropped to the GC.
	hfree []*Handle
	// runHS is FixRun's result scratch; the returned slice is only valid
	// until the next FixRun call.
	runHS []*Handle

	// flushAddrs is FlushAll's scratch: the dirty addresses, sorted.
	flushAddrs []disk.Addr

	hits   int64
	misses int64
	// Victim-search cost: frames tier 1 visited, and searches that fell
	// back to tier 2.
	victimSteps     int64
	victimFallbacks int64
}

type frame struct {
	addr    disk.Addr
	valid   bool
	dirty   bool
	sticky  bool // no-steal: never evicted; shadowing pins pre-images
	pins    int
	lastUse int64
}

// Config sizes a pool.
type Config struct {
	// Frames is the number of page frames (paper: 12).
	Frames int
	// MaxRun is the largest segment, in pages, that may be read into the
	// pool with one I/O call (paper: 4).
	MaxRun int
}

// DefaultConfig returns the paper's pool parameters.
func DefaultConfig() Config { return Config{Frames: 12, MaxRun: 4} }

// New creates a pool over d.
func New(d *disk.Disk, cfg Config) (*Pool, error) {
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("buffer: pool of %d frames", cfg.Frames)
	}
	if cfg.MaxRun <= 0 || cfg.MaxRun > cfg.Frames {
		return nil, fmt.Errorf("buffer: max run %d must be in [1,%d]", cfg.MaxRun, cfg.Frames)
	}
	ps := d.PageSize()
	p := &Pool{
		d:        d,
		obs:      d.Tracer(),
		arena:    make([]byte, cfg.Frames*ps),
		frames:   make([]frame, cfg.Frames),
		index:    make(map[disk.Addr]int),
		maxRun:   cfg.MaxRun,
		pageSize: ps,
		runIdx:   make([]int, cfg.MaxRun),
		age:      newAgeList(cfg.Frames),
		seen:     make([]uint32, cfg.Frames),
		deque:    make([]int, cfg.Frames),
		hfree:    make([]*Handle, 0, 2*cfg.Frames),
		runHS:    make([]*Handle, 0, cfg.MaxRun),
	}
	return p, nil
}

// MaxRun returns the largest segment, in pages, the pool will buffer.
func (p *Pool) MaxRun() int { return p.maxRun }

// Frames returns the pool size in frames.
func (p *Pool) Frames() int { return len(p.frames) }

// HitRate returns pool hits and misses so far.
func (p *Pool) HitRate() (hits, misses int64) { return p.hits, p.misses }

// VictimStats returns what victim selection has cost so far: the frames
// visited on the age list (one or a few per miss while the pool has clean
// cold frames) and the searches that found no all-clean window and scanned
// every frame instead. The same numbers reach an attached metrics registry
// as buffer.victim.steps and buffer.victim.fallbacks.
func (p *Pool) VictimStats() (steps, fallbacks int64) { return p.victimSteps, p.victimFallbacks }

// emit sends a buffer event for page a; count is the run length for
// multi-block fetches (1 otherwise).
func (p *Pool) emit(kind obs.Kind, a disk.Addr, count int) {
	p.obs.Emit(obs.Event{
		Kind:  kind,
		Area:  uint8(a.Area),
		Page:  uint32(a.Page),
		Pages: int32(count),
	})
}

func (p *Pool) data(i int) []byte {
	return p.arena[i*p.pageSize : (i+1)*p.pageSize]
}

// Handle references a fixed page in the pool.
type Handle struct {
	p     *Pool
	frame int
	// Data is the page contents; valid until Unfix.
	Data []byte
	Addr disk.Addr
}

// newHandle returns a handle on frame i, reusing one recycled by Unfix
// when available.
func (p *Pool) newHandle(i int, addr disk.Addr) *Handle {
	if n := len(p.hfree); n > 0 {
		h := p.hfree[n-1]
		p.hfree[n-1] = nil
		p.hfree = p.hfree[:n-1]
		h.p, h.frame, h.Data, h.Addr = p, i, p.data(i), addr
		return h
	}
	return &Handle{p: p, frame: i, Data: p.data(i), Addr: addr}
}

// Contains reports whether addr is resident. Testing aid.
func (p *Pool) Contains(addr disk.Addr) bool {
	_, ok := p.index[addr]
	return ok
}

// FixPage returns a handle on page addr, reading it from disk on a miss
// (one single-page I/O). The page stays pinned until Unfix.
func (p *Pool) FixPage(addr disk.Addr) (*Handle, error) {
	p.tick++
	if i, ok := p.index[addr]; ok {
		p.hits++
		if p.obs.Enabled() {
			p.emit(obs.KindBufHit, addr, 1)
		}
		p.frames[i].pins++
		p.touch(i)
		return p.newHandle(i, addr), nil
	}
	p.misses++
	if p.obs.Enabled() {
		p.emit(obs.KindBufMiss, addr, 1)
	}
	i, err := p.freeWindow(1)
	if err != nil {
		return nil, err
	}
	if err := p.d.Read(addr, 1, p.data(i)); err != nil {
		return nil, err
	}
	p.install(i, addr)
	p.frames[i].pins = 1
	return p.newHandle(i, addr), nil
}

// FixNew returns a handle on page addr without reading it from disk: the
// frame is zeroed and marked dirty. Used when a brand-new page (e.g. a
// freshly allocated index node) is being built.
func (p *Pool) FixNew(addr disk.Addr) (*Handle, error) {
	p.tick++
	if i, ok := p.index[addr]; ok {
		// Re-creating a page that is still resident: reuse the frame.
		clear(p.data(i))
		p.frames[i].pins++
		p.frames[i].dirty = true
		p.touch(i)
		return p.newHandle(i, addr), nil
	}
	i, err := p.freeWindow(1)
	if err != nil {
		return nil, err
	}
	clear(p.data(i))
	p.install(i, addr)
	p.frames[i].pins = 1
	p.frames[i].dirty = true
	return p.newHandle(i, addr), nil
}

// Unfix releases a handle. dirty declares that the caller modified the
// page. The handle is dead afterwards — it is recycled by the pool, so any
// later use (enforced impossible by the fixunfix analyzer) panics rather
// than silently reading another page.
func (h *Handle) Unfix(dirty bool) {
	p := h.p
	if p == nil {
		panic("buffer: unfix of an already-unfixed handle")
	}
	f := &p.frames[h.frame]
	if f.pins <= 0 {
		panic("buffer: unfix of unpinned frame")
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	h.p, h.Data = nil, nil
	if len(p.hfree) < cap(p.hfree) {
		p.hfree = append(p.hfree, h)
	}
}

// FixRun reads npages physically adjacent pages starting at addr into
// adjacent frames with a single I/O call, returning one handle per page.
// If every page of the run is already resident, no I/O happens and the
// cached (possibly non-adjacent) frames are returned. npages must be at
// most MaxRun. Returns ErrNoRun when the pool cannot host the run; callers
// then bypass the pool.
//
// The returned slice is pool-owned scratch: it is valid until the next
// FixRun call on this pool. Callers must unfix (and stop using) the run
// before fixing another, which the store's read path already guarantees.
func (p *Pool) FixRun(addr disk.Addr, npages int) ([]*Handle, error) {
	if npages < 1 || npages > p.maxRun {
		return nil, fmt.Errorf("buffer: run of %d pages outside [1,%d]", npages, p.maxRun)
	}
	if npages == 1 {
		h, err := p.FixPage(addr)
		if err != nil {
			return nil, err
		}
		p.runHS = append(p.runHS[:0], h)
		return p.runHS, nil
	}
	p.tick++
	// Full cache hit?
	if idx, ok := p.residentRun(addr, npages); ok {
		p.hits += int64(npages)
		if p.obs.Enabled() {
			p.emit(obs.KindBufHit, addr, npages)
		}
		hs := p.runHS[:0]
		for k, i := range idx {
			p.frames[i].pins++
			p.touch(i)
			hs = append(hs, p.newHandle(i, addr.Add(k)))
		}
		p.runHS = hs
		return hs, nil
	}
	p.misses += int64(npages)
	if p.obs.Enabled() {
		p.emit(obs.KindBufMiss, addr, npages)
		p.emit(obs.KindBufFetchRun, addr, npages)
	}
	// Flush-and-drop any stale resident copies (a dirty resident page would
	// otherwise be lost when we re-read the run from disk).
	for k := 0; k < npages; k++ {
		if err := p.evictAddr(addr.Add(k)); err != nil {
			return nil, err
		}
	}
	start, err := p.freeWindow(npages)
	if err != nil {
		return nil, err
	}
	if err := p.d.Read(addr, npages, p.arena[start*p.pageSize:(start+npages)*p.pageSize]); err != nil {
		return nil, err
	}
	hs := p.runHS[:0]
	for k := 0; k < npages; k++ {
		i := start + k
		p.install(i, addr.Add(k))
		p.frames[i].pins = 1
		hs = append(hs, p.newHandle(i, addr.Add(k)))
	}
	p.runHS = hs
	return hs, nil
}

// UnfixAll releases a slice of handles with a single dirty flag.
func UnfixAll(hs []*Handle, dirty bool) {
	for _, h := range hs {
		h.Unfix(dirty)
	}
}

// residentRun reports frame numbers if all npages pages are cached. The
// returned slice aliases the pool's scratch space and is only valid until
// the next call.
func (p *Pool) residentRun(addr disk.Addr, npages int) ([]int, bool) {
	idx := p.runIdx[:npages]
	for k := 0; k < npages; k++ {
		i, ok := p.index[addr.Add(k)]
		if !ok {
			return nil, false
		}
		idx[k] = i
	}
	return idx, true
}

// evictAddr removes a resident page, writing it back first when dirty.
func (p *Pool) evictAddr(addr disk.Addr) error {
	i, ok := p.index[addr]
	if !ok {
		return nil
	}
	f := &p.frames[i]
	if f.pins > 0 {
		return fmt.Errorf("buffer: cannot evict pinned page %v", addr)
	}
	if f.dirty {
		if err := p.d.Write(addr, 1, p.data(i)); err != nil {
			return err
		}
	}
	if p.obs.Enabled() {
		p.emit(obs.KindBufEvict, addr, 1)
	}
	p.invalidate(i)
	return nil
}

// install binds frame i to page addr as the most recently used frame.
func (p *Pool) install(i int, addr disk.Addr) {
	p.frames[i] = frame{addr: addr, valid: true, lastUse: p.tick}
	p.index[addr] = i
	p.age.moveBack(i)
}

// touch records a use of resident frame i.
func (p *Pool) touch(i int) {
	p.frames[i].lastUse = p.tick
	p.age.moveBack(i)
}

// invalidate forgets the page in unpinned frame i without writing it back;
// the free frame becomes the oldest.
func (p *Pool) invalidate(i int) {
	delete(p.index, p.frames[i].addr)
	p.frames[i] = frame{}
	p.age.moveFront(i)
}

// use is frame i's position in the age order: its last use, 0 when free.
func (p *Pool) use(i int) int64 {
	f := &p.frames[i]
	if !f.valid {
		return 0
	}
	return f.lastUse
}

// freeWindow evicts as needed to produce npages adjacent free frames and
// returns the first frame number. Clean LRU victims are preferred over
// dirty ones (paper §3.2).
func (p *Pool) freeWindow(npages int) (int, error) {
	start, ok := p.scanWindow(npages)
	if !ok {
		return 0, ErrNoRun
	}
	for i := start; i < start+npages; i++ {
		f := &p.frames[i]
		if f.valid {
			if err := p.evictAddr(f.addr); err != nil {
				return 0, err
			}
		}
	}
	return start, nil
}

// scanWindow selects the cheapest window of npages adjacent evictable
// frames: windows holding a pinned or sticky frame are ineligible; among
// the rest the window with the fewest dirty pages wins, ties broken by the
// lowest recency (the maximum use of its frames), then by the lowest start.
//
// Tier 1 answers whenever some eligible window has no dirty page, which
// beats every window that has one. It walks the age list from the oldest
// frame, marking each unpinned, non-sticky, clean frame as seen. A window
// is complete when its last frame is marked, and because the walk ascends
// in use that frame's use is the window's recency — so the first use value
// at which any window completes is the lowest recency an all-clean window
// has. The walk finishes that group of equal use before stopping, keeping
// the lowest start among the windows the group completes. One miss
// therefore costs O(frames visited × npages): a pool with clean cold
// frames pays for those, not for its size.
//
// Tier 2 runs only when no all-clean window exists: scanLinear's pass over
// every window.
func (p *Pool) scanWindow(npages int) (int, bool) {
	p.seenGen++
	if p.seenGen == 0 { // wrapped: old stamps would read as current
		clear(p.seen)
		p.seenGen = 1
	}
	seen, gen := p.seen, p.seenGen
	var (
		best, steps int
		bestUse     int64
		found       bool
	)
	for i := p.age.front(); i != p.age.end(); i = p.age.next[i] {
		u := p.use(int(i))
		if found && u != bestUse {
			break
		}
		steps++
		f := &p.frames[i]
		if f.pins > 0 || (f.valid && (f.sticky || f.dirty)) {
			continue
		}
		seen[i] = gen
		// [lo, hi] is the run of seen frames around i, grown left as far as
		// a window holding i reaches, then right until it spans a window:
		// lo is then the lowest start of a window that i completes.
		lo, hi := int(i), int(i)
		for lo > 0 && hi-lo+1 < npages && seen[lo-1] == gen {
			lo--
		}
		for hi+1 < len(seen) && hi-lo+1 < npages && seen[hi+1] == gen {
			hi++
		}
		if hi-lo+1 == npages && (!found || lo < best) {
			best, bestUse, found = lo, u, true
		}
	}
	p.victimSteps += int64(steps)
	if p.obs.Enabled() {
		p.obs.Count("buffer.victim.steps", int64(steps))
	}
	if found {
		return best, true
	}
	p.victimFallbacks++
	if p.obs.Enabled() {
		p.obs.Count("buffer.victim.fallbacks", 1)
	}
	return p.scanLinear(npages)
}

// scanLinear is scanWindow's policy evaluated over every window in one
// pass: the window aggregates — blocked count, dirty count, and a monotonic
// deque for the sliding recency maximum — are maintained incrementally, so
// it costs O(frames).
func (p *Pool) scanLinear(npages int) (int, bool) {
	var (
		bestStart, bestDirty int
		bestRec              int64
		found                bool
		blocked, dirtyCnt    int
	)
	dq := p.deque // dq[head:tail]: frame indices with strictly decreasing use
	head, tail := 0, 0
	for i := range p.frames {
		f := &p.frames[i]
		if f.pins > 0 || (f.valid && f.sticky) {
			blocked++
		}
		if f.valid && f.dirty {
			dirtyCnt++
		}
		u := p.use(i)
		for tail > head && p.use(dq[tail-1]) <= u {
			tail--
		}
		dq[tail] = i
		tail++
		if j := i - npages; j >= 0 {
			g := &p.frames[j]
			if g.pins > 0 || (g.valid && g.sticky) {
				blocked--
			}
			if g.valid && g.dirty {
				dirtyCnt--
			}
			if dq[head] == j {
				head++
			}
		}
		if i >= npages-1 && blocked == 0 {
			rec := p.use(dq[head])
			if !found || dirtyCnt < bestDirty ||
				(dirtyCnt == bestDirty && rec < bestRec) {
				bestStart, bestDirty, bestRec, found = i-npages+1, dirtyCnt, rec, true
			}
		}
	}
	return bestStart, found
}

// SetSticky marks or unmarks a resident page as no-steal: sticky pages are
// never evicted. The shadowing protocol sticks every pre-existing index
// page it dirties until the end-of-operation flush, so the on-disk
// pre-image is never overwritten by buffer replacement — a crash always
// finds the old version intact. Marking a non-resident page sticky is an
// error; unmarking one is a no-op.
func (p *Pool) SetSticky(addr disk.Addr, sticky bool) error {
	i, ok := p.index[addr]
	if !ok {
		if sticky {
			return fmt.Errorf("buffer: cannot stick non-resident page %v", addr)
		}
		return nil
	}
	p.frames[i].sticky = sticky
	return nil
}

// FlushPage writes page addr back to disk (one single-page I/O) if it is
// resident and dirty, and marks it clean.
func (p *Pool) FlushPage(addr disk.Addr) error {
	i, ok := p.index[addr]
	if !ok {
		return nil
	}
	f := &p.frames[i]
	if !f.dirty {
		return nil
	}
	if err := p.d.Write(addr, 1, p.data(i)); err != nil {
		return err
	}
	f.dirty = false
	if p.obs.Enabled() {
		p.emit(obs.KindBufFlush, addr, 1)
	}
	return nil
}

// DropRange discards any resident pages in [addr, addr+npages) without
// writing them back. Used when the underlying segment is freed or is about
// to be overwritten wholesale from application space.
func (p *Pool) DropRange(addr disk.Addr, npages int) error {
	for k := 0; k < npages; k++ {
		a := addr.Add(k)
		if i, ok := p.index[a]; ok {
			if p.frames[i].pins > 0 {
				return fmt.Errorf("buffer: cannot drop pinned page %v", a)
			}
			p.invalidate(i)
		}
	}
	return nil
}

// DropAll discards every resident page without writing anything back. It
// fails if any frame is pinned. The concurrent engine's snapshot stripes
// use it when a stripe's read-only pool must forget one frozen object
// version before serving another bound to the same page addresses.
func (p *Pool) DropAll() error {
	for i := range p.frames {
		f := &p.frames[i]
		if !f.valid {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("buffer: cannot drop pinned page %v", f.addr)
		}
		p.invalidate(i)
	}
	return nil
}

// Relocate rebinds a resident page to a new disk address without I/O. The
// shadowing protocol uses it: the in-memory copy of an index page becomes
// the copy at its shadow location. The frame is marked dirty because the
// new disk location holds no valid copy yet.
func (p *Pool) Relocate(old, new disk.Addr) error {
	i, ok := p.index[old]
	if !ok {
		return fmt.Errorf("buffer: relocate of non-resident page %v", old)
	}
	if _, clash := p.index[new]; clash {
		return fmt.Errorf("buffer: relocate target %v already resident", new)
	}
	delete(p.index, old)
	p.index[new] = i
	p.frames[i].addr = new
	p.frames[i].dirty = true
	return nil
}

// FlushAll writes every dirty page back to disk, one I/O per page, in
// ascending (area, page) order regardless of index map iteration, so
// checkpoint I/O is deterministic.
func (p *Pool) FlushAll() error {
	p.flushAddrs = p.flushAddrs[:0]
	for a, i := range p.index {
		if p.frames[i].dirty {
			p.flushAddrs = append(p.flushAddrs, a)
		}
	}
	sort.Slice(p.flushAddrs, func(i, j int) bool {
		a, b := p.flushAddrs[i], p.flushAddrs[j]
		if a.Area != b.Area {
			return a.Area < b.Area
		}
		return a.Page < b.Page
	})
	for _, a := range p.flushAddrs {
		if err := p.FlushPage(a); err != nil {
			return err
		}
	}
	return nil
}

// PinnedPages returns the number of currently pinned frames. Testing aid.
func (p *Pool) PinnedPages() int {
	n := 0
	for i := range p.frames {
		if p.frames[i].pins > 0 {
			n++
		}
	}
	return n
}

// StickyPages returns the number of sticky frames. Testing aid.
func (p *Pool) StickyPages() int {
	n := 0
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].sticky {
			n++
		}
	}
	return n
}
