package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/sim"
)

// newPoolCfg returns a pool over a fresh one-area disk that carries, as a
// store's disk does, a tracer with no sink attached.
func newPoolCfg(t testing.TB, cfg Config) (*Pool, *disk.Disk) {
	t.Helper()
	d, err := disk.New(sim.DefaultModel(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	d.SetTracer(obs.NewTracer())
	if _, err := d.AddArea(1 << 12); err != nil {
		t.Fatal(err)
	}
	p, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

// dirtyPage fixes page pg, stamps a recognizable pattern and unfixes dirty.
func dirtyPage(t *testing.T, p *Pool, pg disk.PageID) {
	t.Helper()
	h, err := p.FixPage(disk.Addr{Page: pg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Data {
		h.Data[i] = byte(pg)
	}
	h.Unfix(true)
}

func expectPage(t *testing.T, d *disk.Disk, pg disk.PageID, fill byte) {
	t.Helper()
	got := make([]byte, d.PageSize())
	if err := d.Peek(disk.Addr{Page: pg}, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{fill}, len(got))) {
		t.Fatalf("page %d on disk: got %x…, want all %x", pg, got[:4], fill)
	}
}

// evictDirtyRun dirties `dirty` adjacent pages, then touches enough far
// pages to force every one of them out, and returns the write-call and
// simulated-time cost of the whole sequence.
func evictDirtyRun(t *testing.T, cfg Config, dirty int) sim.Stats {
	t.Helper()
	p, d := newPoolCfg(t, cfg)
	for k := 0; k < dirty; k++ {
		dirtyPage(t, p, disk.PageID(k))
	}
	before := d.Stats()
	// Far, non-adjacent pages so the pressure itself neither coalesces nor
	// prefetches: each miss evicts resident pages of the dirty run.
	for k := 0; k < cfg.Frames; k++ {
		h, err := p.FixPage(disk.Addr{Page: disk.PageID(1000 + 7*k)})
		if err != nil {
			t.Fatal(err)
		}
		h.Unfix(false)
	}
	for k := 0; k < dirty; k++ {
		if p.Contains(disk.Addr{Page: disk.PageID(k)}) {
			// Still resident: flush instead so every dirty page reaches disk.
			if err := p.FlushPage(disk.Addr{Page: disk.PageID(k)}); err != nil {
				t.Fatal(err)
			}
		}
		expectPage(t, d, disk.PageID(k), byte(k))
	}
	return d.Stats().Sub(before)
}

// TestCoalescedEvictionHalvesWrites is the PR's headline claim: evicting a
// dirty multi-page run costs at least 2x fewer disk.Write calls — and less
// simulated time — with the elevator scheduler than with per-page
// write-back, with identical resulting disk bytes.
func TestCoalescedEvictionHalvesWrites(t *testing.T) {
	const dirty = 8
	off := evictDirtyRun(t, Config{Frames: 12, MaxRun: 4}, dirty)
	on := evictDirtyRun(t, Config{Frames: 12, MaxRun: 4, Coalesce: true}, dirty)
	if off.WriteCalls != dirty {
		t.Fatalf("uncoalesced eviction used %d write calls, want %d", off.WriteCalls, dirty)
	}
	if on.WriteCalls*2 > off.WriteCalls {
		t.Fatalf("coalesced eviction used %d write calls, want <= %d", on.WriteCalls, off.WriteCalls/2)
	}
	if on.Time >= off.Time {
		t.Fatalf("coalesced eviction took %v simulated, uncoalesced %v", on.Time, off.Time)
	}
	if on.CoalescedRuns == 0 {
		t.Fatal("no coalesced runs recorded in stats")
	}
	if off.CoalescedRuns != 0 {
		t.Fatalf("uncoalesced run recorded %d coalesced runs", off.CoalescedRuns)
	}
}

func TestFlushAllCoalescesAdjacentDirtyPages(t *testing.T) {
	p, d := newPoolCfg(t, Config{Frames: 12, MaxRun: 4, Coalesce: true})
	pages := []disk.PageID{20, 21, 9, 0, 1, 2, 3} // runs: [0,4) [9] [20,22)
	for _, pg := range pages {
		dirtyPage(t, p, pg)
	}
	before := d.Stats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(before)
	if delta.WriteCalls != 3 {
		t.Fatalf("FlushAll used %d write calls, want 3", delta.WriteCalls)
	}
	if delta.PagesWritten != int64(len(pages)) {
		t.Fatalf("FlushAll wrote %d pages, want %d", delta.PagesWritten, len(pages))
	}
	if delta.CoalescedRuns != 2 {
		t.Fatalf("FlushAll recorded %d coalesced runs, want 2", delta.CoalescedRuns)
	}
	for _, pg := range pages {
		expectPage(t, d, pg, byte(pg))
	}
	// Everything is clean now: a second FlushAll is free.
	before = d.Stats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Sub(before).WriteCalls != 0 {
		t.Fatal("second FlushAll wrote")
	}
}

// traceFlushAll runs one pool through the same dirty set (handed over in
// the given fix order) and a FlushAll, returning the JSONL trace bytes.
func traceFlushAll(t *testing.T, order []disk.PageID, coalesce bool) []byte {
	t.Helper()
	d, err := disk.New(sim.DefaultModel(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer()
	tr.Attach(obs.NewJSONL(&buf))
	d.SetTracer(tr)
	if _, err := d.AddArea(1 << 12); err != nil {
		t.Fatal(err)
	}
	p, err := New(d, Config{Frames: 12, MaxRun: 4, Coalesce: coalesce})
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range order {
		dirtyPage(t, p, pg)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlushAllTraceDeterministic pins the satellite guarantee: FlushAll
// emits its write-back in ascending-address order regardless of index-map
// iteration, so the full event trace of two same-workload runs is
// byte-identical — with coalescing off (one write per page) and on
// (elevator-ordered runs).
func TestFlushAllTraceDeterministic(t *testing.T) {
	pages := []disk.PageID{13, 2, 40, 3, 27, 1, 14, 0}
	for _, coalesce := range []bool{false, true} {
		// The fix order is part of the trace prefix, so every trial replays
		// the same order; only the pool's internal map iteration varies (Go
		// randomizes it per pool), which is exactly what FlushAll must hide.
		var first []byte
		for trial := 0; trial < 5; trial++ {
			got := traceFlushAll(t, pages, coalesce)
			if first == nil {
				first = got
			} else if !bytes.Equal(first, got) {
				t.Fatalf("coalesce=%v: trial %d trace differs from first", coalesce, trial)
			}
		}
	}
}

func TestFlushBarrierSkipsStickyAndPinned(t *testing.T) {
	p, d := newPoolCfg(t, Config{Frames: 12, MaxRun: 4, Coalesce: true})
	for pg := disk.PageID(0); pg < 4; pg++ {
		dirtyPage(t, p, pg)
	}
	if err := p.SetSticky(disk.Addr{Page: 1}, true); err != nil {
		t.Fatal(err)
	}
	hold, err := p.FixPage(disk.Addr{Page: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if err := p.FlushBarrier(); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(before)
	// Pages 0 and 2 are eligible; 1 (sticky) and 3 (pinned) must be left
	// dirty and unwritten, so the two writes cannot merge across them.
	if delta.WriteCalls != 2 || delta.PagesWritten != 2 {
		t.Fatalf("FlushBarrier: %d calls / %d pages, want 2/2", delta.WriteCalls, delta.PagesWritten)
	}
	hold.Unfix(true)
	if err := p.FlushPage(disk.Addr{Page: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushPage(disk.Addr{Page: 3}); err != nil {
		t.Fatal(err)
	}
	for pg := disk.PageID(0); pg < 4; pg++ {
		expectPage(t, d, pg, byte(pg))
	}
}

// TestFlushBarrierOffModeIsFree pins the flag gate: without Coalesce the
// barrier hook performs no I/O and leaves dirty pages in place.
func TestFlushBarrierOffModeIsFree(t *testing.T) {
	p, d := newPoolCfg(t, Config{Frames: 12, MaxRun: 4})
	for pg := disk.PageID(0); pg < 4; pg++ {
		dirtyPage(t, p, pg)
	}
	before := d.Stats()
	if err := p.FlushBarrier(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Sub(before).Calls() != 0 {
		t.Fatal("FlushBarrier did I/O with coalescing off")
	}
}

func TestReadAheadPrefetchesSequentialScan(t *testing.T) {
	p, d := newPoolCfg(t, Config{Frames: 12, MaxRun: 4, Coalesce: true})
	data := bytes.Repeat([]byte{0xCD}, 32*d.PageSize())
	if err := d.Write(disk.Addr{Page: 0}, 32, data); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	// A single-page ascending scan: the second miss continues the frontier
	// and triggers read-ahead; later hits on prefetched frames keep the
	// pipeline primed.
	for pg := disk.PageID(0); pg < 32; pg++ {
		h, err := p.FixPage(disk.Addr{Page: pg})
		if err != nil {
			t.Fatal(err)
		}
		if h.Data[0] != 0xCD {
			t.Fatalf("page %d: wrong data", pg)
		}
		h.Unfix(false)
	}
	delta := d.Stats().Sub(before)
	if delta.PrefetchReads == 0 {
		t.Fatal("sequential scan triggered no prefetch")
	}
	if delta.PrefetchHits == 0 {
		t.Fatal("no prefetched page was ever demanded")
	}
	// 32 single-page demand misses would cost 32 read calls; the pipeline
	// must do materially better.
	if delta.ReadCalls >= 32 {
		t.Fatalf("scan cost %d read calls, want < 32", delta.ReadCalls)
	}
	if delta.PagesRead < 32 {
		t.Fatalf("scan read %d pages, want >= 32", delta.PagesRead)
	}
}

func TestReadAheadOffModeUnchanged(t *testing.T) {
	p, d := newPoolCfg(t, Config{Frames: 12, MaxRun: 4})
	data := bytes.Repeat([]byte{0xCD}, 16*d.PageSize())
	if err := d.Write(disk.Addr{Page: 0}, 16, data); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	for pg := disk.PageID(0); pg < 16; pg++ {
		h, err := p.FixPage(disk.Addr{Page: pg})
		if err != nil {
			t.Fatal(err)
		}
		h.Unfix(false)
	}
	delta := d.Stats().Sub(before)
	if delta.ReadCalls != 16 || delta.PrefetchReads != 0 || delta.PrefetchHits != 0 {
		t.Fatalf("off-mode scan: %d reads, %d prefetches, %d hits; want 16/0/0",
			delta.ReadCalls, delta.PrefetchReads, delta.PrefetchHits)
	}
}

// TestReadAheadNeverEvictsProtectedFrames fills the pool with pinned,
// sticky and dirty pages and checks a sequential scan never reclaims them
// for speculation: prefetch is skipped outright when no write-free window
// exists.
func TestReadAheadNeverEvictsProtectedFrames(t *testing.T) {
	p, d := newPoolCfg(t, Config{Frames: 6, MaxRun: 2, Coalesce: true})
	data := bytes.Repeat([]byte{0xEE}, 64*d.PageSize())
	if err := d.Write(disk.Addr{Page: 100}, 32, data[:32*d.PageSize()]); err != nil {
		t.Fatal(err)
	}

	// Frames 0-3: two pinned pages, one sticky page, one dirty page.
	pinA, err := p.FixPage(disk.Addr{Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	pinB, err := p.FixPage(disk.Addr{Page: 1})
	if err != nil {
		t.Fatal(err)
	}
	stickyH, err := p.FixPage(disk.Addr{Page: 2})
	if err != nil {
		t.Fatal(err)
	}
	stickyH.Unfix(false)
	if err := p.SetSticky(disk.Addr{Page: 2}, true); err != nil {
		t.Fatal(err)
	}
	dirtyPage(t, p, 3)

	// The two remaining frames serve an ascending scan; every prefetch
	// window would need the protected frames, so none may fire.
	before := d.Stats()
	for pg := disk.PageID(100); pg < 110; pg++ {
		h, err := p.FixPage(disk.Addr{Page: pg})
		if err != nil {
			t.Fatal(err)
		}
		h.Unfix(false)
	}
	delta := d.Stats().Sub(before)
	if delta.PrefetchReads != 0 {
		t.Fatalf("prefetch fired %d times with no clean window", delta.PrefetchReads)
	}
	if delta.WriteCalls != 0 {
		t.Fatalf("scan wrote %d times; the dirty page must not be evicted for it", delta.WriteCalls)
	}
	if p.PinnedPages() != 2 || p.StickyPages() != 1 {
		t.Fatalf("pins=%d sticky=%d, want 2/1", p.PinnedPages(), p.StickyPages())
	}
	for pg := disk.PageID(0); pg < 4; pg++ {
		if !p.Contains(disk.Addr{Page: pg}) {
			t.Fatalf("protected page %d was evicted", pg)
		}
	}
	pinA.Unfix(false)
	pinB.Unfix(false)
}

// referenceScan is the victim policy written out window by window: the
// original O(frames x npages) rescan that scanWindow must agree with.
func referenceScan(p *Pool, npages int, cleanOnly bool) (int, bool) {
	type cand struct {
		start, dirty int
		recency      int64
	}
	var best cand
	found := false
	for s := 0; s+npages <= len(p.frames); s++ {
		c := cand{start: s}
		ok := true
		for i := s; i < s+npages; i++ {
			f := &p.frames[i]
			if f.pins > 0 || (f.valid && f.sticky) || (cleanOnly && f.valid && f.dirty) {
				ok = false
				break
			}
			if !f.valid {
				continue
			}
			if f.dirty {
				c.dirty++
			}
			if f.lastUse > c.recency {
				c.recency = f.lastUse
			}
		}
		if !ok {
			continue
		}
		if !found || c.dirty < best.dirty ||
			(c.dirty == best.dirty && c.recency < best.recency) {
			best = c
			found = true
		}
	}
	return best.start, found
}

// checkScan compares scanWindow with the reference for every run length up
// to maxRun and both cleanOnly values.
func checkScan(t *testing.T, p *Pool, maxRun int, what string) {
	t.Helper()
	for npages := 1; npages <= maxRun; npages++ {
		for _, cleanOnly := range []bool{false, true} {
			wantStart, wantOK := referenceScan(p, npages, cleanOnly)
			gotStart, gotOK := p.scanWindow(npages, cleanOnly)
			if wantOK != gotOK || (wantOK && wantStart != gotStart) {
				t.Fatalf("%s: npages %d cleanOnly %v: scanWindow = (%d,%v), reference = (%d,%v)",
					what, npages, cleanOnly, gotStart, gotOK, wantStart, wantOK)
			}
		}
	}
}

// relinkAge rebuilds the age list of a pool whose frames a test filled in
// by hand: ascending use, frames of equal use in random order, since the
// pool leaves that order unspecified and scanWindow must not depend on it.
func relinkAge(p *Pool, rng *rand.Rand) {
	order := rng.Perm(len(p.frames))
	sort.SliceStable(order, func(a, b int) bool { return p.use(order[a]) < p.use(order[b]) })
	for _, i := range order {
		p.age.moveBack(i)
	}
}

// TestScanWindowMatchesReference cross-checks the victim search against
// the reference on randomized hand-built pool states: identical window
// choice for every run length, including the tie-breaking order.
func TestScanWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		frames := 2 + rng.Intn(15)
		p, _ := newPoolCfg(t, Config{Frames: frames, MaxRun: frames})
		for i := range p.frames {
			f := &p.frames[i]
			f.valid = rng.Intn(3) > 0
			if f.valid {
				f.addr = disk.Addr{Page: disk.PageID(i)}
				f.dirty = rng.Intn(2) == 0
				f.sticky = rng.Intn(4) == 0
				f.lastUse = int64(rng.Intn(5))
			}
			if rng.Intn(5) == 0 {
				f.pins = 1
			}
		}
		relinkAge(p, rng)
		checkScan(t, p, frames, fmt.Sprintf("trial %d", trial))
	}
}

// TestCoalescedFlushPageMergesNeighbours pins the FlushPage-driven
// checkpoint path: flushing one page drags eligible adjacent dirty pages
// along but never a sticky or pinned neighbour.
func TestCoalescedFlushPageMergesNeighbours(t *testing.T) {
	p, d := newPoolCfg(t, Config{Frames: 12, MaxRun: 4, Coalesce: true})
	for pg := disk.PageID(0); pg < 4; pg++ {
		dirtyPage(t, p, pg)
	}
	before := d.Stats()
	if err := p.FlushPage(disk.Addr{Page: 1}); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(before)
	if delta.WriteCalls != 1 || delta.PagesWritten != 4 {
		t.Fatalf("FlushPage coalesced %d calls / %d pages, want 1/4", delta.WriteCalls, delta.PagesWritten)
	}

	// A sticky neighbour splits the run.
	for pg := disk.PageID(20); pg < 24; pg++ {
		dirtyPage(t, p, pg)
	}
	if err := p.SetSticky(disk.Addr{Page: 22}, true); err != nil {
		t.Fatal(err)
	}
	before = d.Stats()
	if err := p.FlushPage(disk.Addr{Page: 20}); err != nil {
		t.Fatal(err)
	}
	delta = d.Stats().Sub(before)
	if delta.WriteCalls != 1 || delta.PagesWritten != 2 {
		t.Fatalf("FlushPage near sticky wrote %d calls / %d pages, want 1/2 (pages 20-21)",
			delta.WriteCalls, delta.PagesWritten)
	}
	if err := p.SetSticky(disk.Addr{Page: 22}, false); err != nil {
		t.Fatal(err)
	}
}
