package buffer

import (
	"bytes"
	"errors"
	"testing"

	"lobstore/internal/disk"
	"lobstore/internal/obs"
	"lobstore/internal/sim"
)

func newPool(t *testing.T, frames, maxRun int) (*Pool, *disk.Disk) {
	t.Helper()
	d, err := disk.New(sim.DefaultModel(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddArea(1 << 12); err != nil {
		t.Fatal(err)
	}
	p, err := New(d, Config{Frames: frames, MaxRun: maxRun})
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

func writePage(t *testing.T, d *disk.Disk, page disk.PageID, fill byte) {
	t.Helper()
	buf := bytes.Repeat([]byte{fill}, d.PageSize())
	if err := d.Write(disk.Addr{Page: page}, 1, buf); err != nil {
		t.Fatal(err)
	}
}

func TestFixPageMissThenHit(t *testing.T) {
	p, d := newPool(t, 12, 4)
	writePage(t, d, 7, 0xAB)
	before := d.Stats()

	h, err := p.FixPage(disk.Addr{Page: 7})
	if err != nil {
		t.Fatal(err)
	}
	if h.Data[0] != 0xAB {
		t.Fatal("wrong data")
	}
	h.Unfix(false)
	if delta := d.Stats().Sub(before); delta.ReadCalls != 1 {
		t.Fatalf("miss cost %d reads, want 1", delta.ReadCalls)
	}

	before = d.Stats()
	h, err = p.FixPage(disk.Addr{Page: 7})
	if err != nil {
		t.Fatal(err)
	}
	h.Unfix(false)
	if delta := d.Stats().Sub(before); delta.Calls() != 0 {
		t.Fatal("hit cost I/O")
	}
	hits, misses := p.HitRate()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	p, d := newPool(t, 2, 1)
	h, err := p.FixPage(disk.Addr{Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	h.Data[0] = 0x5A
	h.Unfix(true)

	// Dirty the second frame too, so eviction has no clean victim and must
	// write back the least recently used dirty page (page 0).
	h, err = p.FixPage(disk.Addr{Page: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Data[0] = 0x5B
	h.Unfix(true)
	h, err = p.FixPage(disk.Addr{Page: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Unfix(false)
	if p.Contains(disk.Addr{Page: 0}) {
		t.Fatal("LRU dirty page still resident after forced eviction")
	}
	buf := make([]byte, d.PageSize())
	if err := d.Peek(disk.Addr{Page: 0}, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x5A {
		t.Fatal("dirty page lost on eviction")
	}
}

func TestCleanEvictedBeforeDirty(t *testing.T) {
	p, _ := newPool(t, 2, 1)
	// Frame A dirty, frame B clean and more recently used.
	ha, _ := p.FixPage(disk.Addr{Page: 0})
	ha.Data[0] = 1
	ha.Unfix(true)
	hb, _ := p.FixPage(disk.Addr{Page: 1})
	hb.Unfix(false)
	// Touch the dirty page so it is also the most recently used.
	ha, _ = p.FixPage(disk.Addr{Page: 0})
	ha.Unfix(false)

	hc, _ := p.FixPage(disk.Addr{Page: 2})
	hc.Unfix(false)
	if !p.Contains(disk.Addr{Page: 0}) {
		t.Fatal("dirty page evicted while a clean page was available")
	}
	if p.Contains(disk.Addr{Page: 1}) {
		t.Fatal("clean page survived")
	}
}

func TestPinnedPagesNeverEvicted(t *testing.T) {
	p, _ := newPool(t, 2, 1)
	h0, _ := p.FixPage(disk.Addr{Page: 0})
	h1, _ := p.FixPage(disk.Addr{Page: 1})
	if _, err := p.FixPage(disk.Addr{Page: 2}); !errors.Is(err, ErrNoRun) {
		t.Fatalf("fix with all frames pinned: %v, want ErrNoRun", err)
	}
	h0.Unfix(false)
	h1.Unfix(false)
}

func TestFixRunSingleIO(t *testing.T) {
	p, d := newPool(t, 12, 4)
	for i := 0; i < 4; i++ {
		writePage(t, d, disk.PageID(i), byte(i+1))
	}
	before := d.Stats()
	hs, err := p.FixRun(disk.Addr{Page: 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(before)
	if delta.ReadCalls != 1 || delta.PagesRead != 4 {
		t.Fatalf("run read: %+v, want 1 call 4 pages", delta)
	}
	if delta.Time != 49*sim.Millisecond {
		t.Fatalf("run cost %v, want 49ms", delta.Time)
	}
	for i, h := range hs {
		if h.Data[0] != byte(i+1) {
			t.Fatalf("page %d data %d", i, h.Data[0])
		}
	}
	UnfixAll(hs, false)

	// Second run over the same pages is a pure hit.
	before = d.Stats()
	hs, err = p.FixRun(disk.Addr{Page: 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	UnfixAll(hs, false)
	if delta := d.Stats().Sub(before); delta.Calls() != 0 {
		t.Fatal("cached run cost I/O")
	}
}

func TestFixRunRejectsOversize(t *testing.T) {
	p, _ := newPool(t, 12, 4)
	if _, err := p.FixRun(disk.Addr{Page: 0}, 5); err == nil {
		t.Fatal("run beyond MaxRun succeeded")
	}
	if _, err := p.FixRun(disk.Addr{Page: 0}, 0); err == nil {
		t.Fatal("empty run succeeded")
	}
}

func TestFixRunFlushesStaleDirtyCopy(t *testing.T) {
	p, d := newPool(t, 12, 4)
	// Dirty page 1 in the pool.
	h, _ := p.FixPage(disk.Addr{Page: 1})
	h.Data[0] = 0x77
	h.Unfix(true)
	// Reading the run 0..3 must not lose the dirty byte.
	hs, err := p.FixRun(disk.Addr{Page: 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hs[1].Data[0] != 0x77 {
		t.Fatal("dirty page content lost by run read")
	}
	UnfixAll(hs, false)
	buf := make([]byte, d.PageSize())
	if err := d.Peek(disk.Addr{Page: 1}, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x77 {
		t.Fatal("dirty page not written back before run re-read")
	}
}

func TestFixNewZeroesAndDirties(t *testing.T) {
	p, d := newPool(t, 12, 4)
	writePage(t, d, 3, 0xEE)
	h, err := p.FixNew(disk.Addr{Page: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range h.Data {
		if b != 0 {
			t.Fatal("FixNew frame not zeroed")
		}
	}
	h.Data[0] = 0x42
	h.Unfix(true)
	if err := p.FlushPage(disk.Addr{Page: 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	if err := d.Peek(disk.Addr{Page: 3}, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x42 {
		t.Fatal("FixNew page not flushed")
	}
}

func TestRelocate(t *testing.T) {
	p, d := newPool(t, 12, 4)
	h, _ := p.FixNew(disk.Addr{Page: 5})
	h.Data[0] = 0x33
	h.Unfix(true)
	if err := p.Relocate(disk.Addr{Page: 5}, disk.Addr{Page: 9}); err != nil {
		t.Fatal(err)
	}
	if p.Contains(disk.Addr{Page: 5}) || !p.Contains(disk.Addr{Page: 9}) {
		t.Fatal("relocate did not move residency")
	}
	if err := p.FlushPage(disk.Addr{Page: 9}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	if err := d.Peek(disk.Addr{Page: 9}, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x33 {
		t.Fatal("relocated page not written to new home")
	}
	if err := p.Relocate(disk.Addr{Page: 5}, disk.Addr{Page: 10}); err == nil {
		t.Fatal("relocate of non-resident page succeeded")
	}
}

// A clean page must still be written after relocation: its new disk home
// has no valid copy.
func TestRelocateMarksDirty(t *testing.T) {
	p, d := newPool(t, 12, 4)
	writePage(t, d, 0, 0x11)
	h, _ := p.FixPage(disk.Addr{Page: 0})
	h.Unfix(false) // clean
	if err := p.Relocate(disk.Addr{Page: 0}, disk.Addr{Page: 6}); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushPage(disk.Addr{Page: 6}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	if err := d.Peek(disk.Addr{Page: 6}, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatal("relocated clean page never reached its new home")
	}
}

func TestDropRange(t *testing.T) {
	p, d := newPool(t, 12, 4)
	h, _ := p.FixPage(disk.Addr{Page: 0})
	h.Data[0] = 0x99
	h.Unfix(true)
	if err := p.DropRange(disk.Addr{Page: 0}, 2); err != nil {
		t.Fatal(err)
	}
	if p.Contains(disk.Addr{Page: 0}) {
		t.Fatal("dropped page still resident")
	}
	// The dirty data must NOT have been written (drop discards).
	buf := make([]byte, d.PageSize())
	if err := d.Peek(disk.Addr{Page: 0}, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] == 0x99 {
		t.Fatal("DropRange wrote the page back")
	}
}

func TestFlushAll(t *testing.T) {
	p, d := newPool(t, 12, 4)
	for i := 0; i < 3; i++ {
		h, _ := p.FixPage(disk.Addr{Page: disk.PageID(i * 2)})
		h.Data[0] = byte(i + 1)
		h.Unfix(true)
	}
	before := d.Stats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if delta := d.Stats().Sub(before); delta.WriteCalls != 3 {
		t.Fatalf("flushed %d pages, want 3", delta.WriteCalls)
	}
	// Idempotent.
	before = d.Stats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if delta := d.Stats().Sub(before); delta.Calls() != 0 {
		t.Fatal("second FlushAll cost I/O")
	}
}

func TestConfigValidation(t *testing.T) {
	d, _ := disk.New(sim.DefaultModel(), sim.NewClock())
	if _, err := New(d, Config{Frames: 0, MaxRun: 1}); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := New(d, Config{Frames: 4, MaxRun: 5}); err == nil {
		t.Error("MaxRun > Frames accepted")
	}
	if _, err := New(d, Config{Frames: 4, MaxRun: 0}); err == nil {
		t.Error("zero MaxRun accepted")
	}
}

func TestUnfixPanicsWhenUnpinned(t *testing.T) {
	p, _ := newPool(t, 12, 4)
	h, _ := p.FixPage(disk.Addr{Page: 0})
	h.Unfix(false)
	defer func() {
		if recover() == nil {
			t.Error("double unfix did not panic")
		}
	}()
	h.Unfix(false)
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

// TestPageAtATimeIO pins the paper's I/O-call accounting (§3.2, §4.1) at
// the pool: a single-page ascending scan costs one read call per page, and
// adjacent dirty pages are written back one call each — on eviction and on
// FlushAll alike — never merged into a run.
func TestPageAtATimeIO(t *testing.T) {
	const frames = 8
	p, d := newPool(t, frames, 4)
	before := d.Stats()
	for pg := disk.PageID(100); pg < 116; pg++ {
		h, err := p.FixPage(disk.Addr{Page: pg})
		if err != nil {
			t.Fatal(err)
		}
		h.Unfix(false)
	}
	if delta := d.Stats().Sub(before); delta.ReadCalls != 16 || delta.PagesRead != 16 {
		t.Fatalf("16-page scan: %d read calls / %d pages, want 16/16", delta.ReadCalls, delta.PagesRead)
	}

	// Fill the pool with an adjacent dirty run, then fix as many far pages
	// and hold them: every miss has only dirty frames to take.
	for pg := disk.PageID(0); pg < frames; pg++ {
		dirtyPage(t, p, pg)
	}
	before = d.Stats()
	var held []*Handle
	for k := 0; k < frames; k++ {
		h, err := p.FixPage(disk.Addr{Page: disk.PageID(1000 + 7*k)})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	UnfixAll(held, false)
	if delta := d.Stats().Sub(before); delta.WriteCalls != frames || delta.PagesWritten != frames {
		t.Fatalf("evicting %d adjacent dirty pages: %d write calls / %d pages, want %d/%d",
			frames, delta.WriteCalls, delta.PagesWritten, frames, frames)
	}
	for pg := disk.PageID(0); pg < frames; pg++ {
		expectPage(t, d, pg, byte(pg))
	}

	for pg := disk.PageID(20); pg < 24; pg++ {
		dirtyPage(t, p, pg)
	}
	before = d.Stats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if delta := d.Stats().Sub(before); delta.WriteCalls != 4 || delta.PagesWritten != 4 {
		t.Fatalf("FlushAll of 4 adjacent dirty pages: %d write calls / %d pages, want 4/4",
			delta.WriteCalls, delta.PagesWritten)
	}
}

// traceFlushAll runs one pool through the same dirty set (handed over in
// the given fix order) and a FlushAll, returning the JSONL trace bytes.
func traceFlushAll(t *testing.T, order []disk.PageID) []byte {
	t.Helper()
	p, d := newPoolCfg(t, Config{Frames: 12, MaxRun: 4})
	var buf bytes.Buffer
	d.Tracer().Attach(obs.NewJSONL(&buf))
	for _, pg := range order {
		dirtyPage(t, p, pg)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Tracer().Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlushAllTraceDeterministic pins FlushAll's write-back order:
// ascending address regardless of index-map iteration, so the full event
// trace of two same-workload runs is byte-identical.
func TestFlushAllTraceDeterministic(t *testing.T) {
	pages := []disk.PageID{13, 2, 40, 3, 27, 1, 14, 0}
	// The fix order is part of the trace prefix, so every trial replays
	// the same order; only the pool's internal map iteration varies (Go
	// randomizes it per pool), which is exactly what FlushAll must hide.
	var first []byte
	for trial := 0; trial < 5; trial++ {
		got := traceFlushAll(t, pages)
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Fatalf("trial %d trace differs from first", trial)
		}
	}
}
