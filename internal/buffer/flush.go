// Write-back scheduling and sequential read-ahead (Config.Coalesce).
//
// The paper's cost model charges every I/O call a full seek (§4.1), and its
// prototype writes each dirty page back individually, so evicting a dirty
// k-page run pays k seeks. With coalescing enabled the pool instead plans
// its write-back as an elevator sweep: dirty page addresses are sorted
// ascending and physically adjacent pages in the same area merge into one
// multi-page disk.Write capped at MaxRun, assembled through a scratch
// buffer because adjacent disk pages need not occupy adjacent frames.
// Sequential read-ahead watches the per-area demand-access frontier and
// speculatively reads the next run into frames whose reclamation requires
// no write and never touches a pinned, sticky or dirty page.
//
// Everything here is inert when coalescing is off (the default): the paper
// reproduction keeps per-page write-back so its I/O-call accounting — and
// every reproduced table — is bit-for-bit unchanged.
//
// Safety against the shadow-commit protocol (§3.3): a page is sticky from
// the moment an operation dirties it until its own protocol-ordered flush,
// so restricting opportunistic coalescing to non-sticky neighbours can
// never write a pre-image's home early, and can never write the root —
// the commit point — before the protocol's own barrier-then-root order.
package buffer

import (
	"lobstore/internal/disk"
	"lobstore/internal/obs"
)

// flushPlanned issues one planned write-back run: the pages are assembled
// from their (possibly scattered) frames into the scratch buffer, written
// with a single I/O call, and marked clean. Every page of the run must be
// resident and dirty.
func (p *Pool) flushPlanned(r run) error {
	if r.Pages == 1 {
		i := p.index[r.Addr]
		if err := p.d.Write(r.Addr, 1, p.data(i)); err != nil {
			return err
		}
		if p.obs.Enabled() {
			p.emit(obs.KindBufWriteRun, r.Addr, 1)
		}
		p.frames[i].dirty = false
		return nil
	}
	buf := p.wbuf[:r.Pages*p.pageSize]
	for k := 0; k < r.Pages; k++ {
		i := p.index[r.Addr.Add(k)]
		copy(buf[k*p.pageSize:(k+1)*p.pageSize], p.data(i))
	}
	if err := p.d.Write(r.Addr, r.Pages, buf); err != nil {
		return err
	}
	p.d.NoteCoalescedRun(r.Pages)
	if p.obs.Enabled() {
		p.emit(obs.KindBufWriteRun, r.Addr, r.Pages)
	}
	for k := 0; k < r.Pages; k++ {
		p.frames[p.index[r.Addr.Add(k)]].dirty = false
	}
	return nil
}

// coalescable reports whether page a may ride along in a run flushed for a
// neighbouring page: it must be resident, dirty, unpinned and not sticky.
// Sticky pages are excluded because the shadow-commit protocol orders
// their writes itself; pinned pages because their contents may be
// mid-modification.
func (p *Pool) coalescable(a disk.Addr) bool {
	i, ok := p.index[a]
	if !ok {
		return false
	}
	f := &p.frames[i]
	return f.dirty && !f.sticky && f.pins == 0
}

// flushRunAround writes the maximal run of eligible dirty pages containing
// addr — addr unconditionally (the caller decided it must reach disk),
// extended right then left over coalescable neighbours up to MaxRun pages
// — as one I/O call, and marks every page of the run clean.
func (p *Pool) flushRunAround(addr disk.Addr) error {
	lo, hi, n := addr, addr, 1
	for n < p.maxRun && p.coalescable(hi.Add(1)) {
		hi = hi.Add(1)
		n++
	}
	for n < p.maxRun && lo.Page > 0 && p.coalescable(lo.Add(-1)) {
		lo = lo.Add(-1)
		n++
	}
	return p.flushPlanned(run{Addr: lo, Pages: n})
}

// evictWindow clears the frame window chosen by scanWindow in elevator
// order: victim addresses are sorted ascending and each dirty one is
// written back as a coalesced run (which may also clean eligible dirty
// pages outside the window) before the frame is dropped.
func (p *Pool) evictWindow(start, npages int) error {
	p.flushAddrs = p.flushAddrs[:0]
	for i := start; i < start+npages; i++ {
		if p.frames[i].valid {
			p.flushAddrs = append(p.flushAddrs, p.frames[i].addr)
		}
	}
	sortAddrs(p.flushAddrs)
	for _, a := range p.flushAddrs {
		if err := p.evictAddr(a); err != nil {
			return err
		}
	}
	return nil
}

// FlushBarrier runs one elevator sweep ahead of a durability barrier:
// every dirty page that is neither pinned nor protected by the shadow
// protocol (sticky) is written back in ascending-address coalesced runs,
// so the barrier syncs a few large sequential writes instead of leaving
// the backlog to later one-page evictions. A no-op with coalescing off.
func (p *Pool) FlushBarrier() error {
	if !p.coalesce {
		return nil
	}
	p.flushAddrs = p.flushAddrs[:0]
	for a, i := range p.index {
		f := &p.frames[i]
		if f.dirty && !f.sticky && f.pins == 0 {
			p.flushAddrs = append(p.flushAddrs, a)
		}
	}
	if len(p.flushAddrs) == 0 {
		return nil
	}
	p.flushRuns = plan(p.flushAddrs, p.maxRun, p.flushRuns[:0])
	for _, r := range p.flushRuns {
		if err := p.flushPlanned(r); err != nil {
			return err
		}
	}
	return nil
}

// noteAccess records a demand access and reports whether it continued the
// area's ascending frontier — the trigger for read-ahead.
func (p *Pool) noteAccess(addr disk.Addr, npages int) bool {
	next, ok := p.raNext[addr.Area]
	seq := ok && next == addr.Page
	p.raNext[addr.Area] = addr.Page + disk.PageID(npages)
	return seq
}

// noteHit maintains read-ahead state on a demand hit of the resident run
// [addr, addr+npages) occupying frames idx. Hits on prefetched frames are
// counted once per page, and the first hit into a prefetched run extends
// the pipeline by prefetching past the cached frontier.
func (p *Pool) noteHit(addr disk.Addr, npages int, idx []int) error {
	p.noteAccess(addr, npages)
	cnt := 0
	for _, i := range idx {
		if p.frames[i].prefetched {
			p.frames[i].prefetched = false
			cnt++
		}
	}
	if cnt == 0 {
		return nil
	}
	p.d.NotePrefetchHits(cnt)
	if p.obs.Enabled() {
		p.emit(obs.KindBufPrefetchHit, addr, cnt)
	}
	return p.maybePrefetch(addr.Add(npages))
}

// maybePrefetch speculatively reads the run following a sequential access
// that ended at next. It skips already-resident pages at the frontier,
// shrinks the run at area end or at the first resident page, and gives up
// silently unless it finds a frame window whose reclamation needs no
// write-back: only invalid or clean unpinned non-sticky frames may host a
// prefetch, so read-ahead never evicts a pinned, sticky or dirty page.
func (p *Pool) maybePrefetch(next disk.Addr) error {
	skipped := 0
	for ; skipped < p.maxRun; skipped++ {
		if _, ok := p.index[next]; !ok {
			break
		}
		next = next.Add(1)
	}
	if skipped == p.maxRun {
		return nil // the cached frontier is already a full run ahead
	}
	apages, err := p.d.AreaPages(next.Area)
	if err != nil {
		return err
	}
	n := p.maxRun
	if rem := apages - int(next.Page); rem < n {
		n = rem
	}
	for k := 1; k < n; k++ {
		if _, ok := p.index[next.Add(k)]; ok {
			n = k
			break
		}
	}
	if n < 2 {
		return nil // a one-page speculation cannot beat a demand read
	}
	start, ok := p.scanWindow(n, true)
	if !ok {
		return nil
	}
	for i := start; i < start+n; i++ {
		f := &p.frames[i]
		if f.valid {
			if p.obs.Enabled() {
				p.emit(obs.KindBufEvict, f.addr, 1)
			}
			p.invalidate(i)
		}
	}
	if err := p.d.Read(next, n, p.arena[start*p.pageSize:(start+n)*p.pageSize]); err != nil {
		return err
	}
	p.d.NotePrefetchRead()
	if p.obs.Enabled() {
		p.emit(obs.KindBufPrefetch, next, n)
	}
	for k := 0; k < n; k++ {
		i := start + k
		p.install(i, next.Add(k))
		p.frames[i].prefetched = true
	}
	return nil
}
