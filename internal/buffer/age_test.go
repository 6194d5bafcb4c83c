package buffer

import (
	"fmt"
	"math"
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

// checkAge verifies the age list against the frames: it is a permutation
// of them, uses never decrease from front to back, and every invalid frame
// precedes every valid one.
func (p *Pool) checkAge() error {
	a := &p.age
	linked := make([]bool, len(p.frames))
	var lastUse int64
	valid := false
	n := 0
	for i := a.front(); i != a.end(); i = a.next[i] {
		if linked[i] {
			return fmt.Errorf("age list: frame %d linked twice", i)
		}
		linked[i] = true
		n++
		if a.prev[a.next[i]] != i {
			return fmt.Errorf("age list: prev/next disagree after frame %d", i)
		}
		u := p.use(int(i))
		if u < lastUse {
			return fmt.Errorf("age list: frame %d use %d follows use %d", i, u, lastUse)
		}
		lastUse = u
		if valid && !p.frames[i].valid {
			return fmt.Errorf("age list: invalid frame %d follows a valid one", i)
		}
		valid = p.frames[i].valid
	}
	if n != len(p.frames) {
		return fmt.Errorf("age list: %d of %d frames linked", n, len(p.frames))
	}
	return nil
}

// referenceScan is the victim policy written out window by window: the
// original O(frames x npages) rescan that scanWindow must agree with.
func referenceScan(p *Pool, npages int) (int, bool) {
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
			if f.pins > 0 || (f.valid && f.sticky) {
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
// to maxRun.
func checkScan(t *testing.T, p *Pool, maxRun int, what string) {
	t.Helper()
	for npages := 1; npages <= maxRun; npages++ {
		wantStart, wantOK := referenceScan(p, npages)
		gotStart, gotOK := p.scanWindow(npages)
		if wantOK != gotOK || (wantOK && wantStart != gotStart) {
			t.Fatalf("%s: npages %d: scanWindow = (%d,%v), reference = (%d,%v)",
				what, npages, gotStart, gotOK, wantStart, wantOK)
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

// TestAgeOrderProperty drives pools of 2-64 frames through the public API
// only, in seeded random order, and after every step requires the age list
// to be well formed and scanWindow to pick the reference's window for every
// run length. Errors the API returns (no free
// run, pinned page in the way, non-resident page) are legal outcomes; the
// invariants must hold after them too.
func TestAgeOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames := 2 + rng.Intn(63)
		maxRun := 1 + rng.Intn(min(frames, 8))
		p, _ := newPoolCfg(t, Config{Frames: frames, MaxRun: maxRun})
		if seed%5 == 0 {
			p.seenGen = math.MaxUint32 - 20 // cross the generation wrap
		}
		// A page range a few times the pool, so steps mix hits, misses and
		// partly resident runs.
		addr := func() disk.Addr { return disk.Addr{Page: disk.PageID(rng.Intn(3 * frames))} }
		var held []*Handle
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(12); {
			case op < 3 && len(held) < frames/2:
				if h, err := p.FixPage(addr()); err == nil {
					held = append(held, h)
				}
			case op < 5 && len(held) < frames/2:
				if hs, err := p.FixRun(addr(), 1+rng.Intn(maxRun)); err == nil {
					held = append(held, hs...) // hs is pool scratch: copy out
				}
			case op < 6 && len(held) < frames/2:
				if h, err := p.FixNew(addr()); err == nil {
					held = append(held, h)
				}
			case op < 8:
				if len(held) > 0 {
					k := rng.Intn(len(held))
					held[k].Unfix(rng.Intn(2) == 0)
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			case op == 8:
				_ = p.SetSticky(addr(), rng.Intn(2) == 0) // sticking a non-resident page is refused
			case op == 9:
				if err := p.FlushPage(addr()); err != nil {
					t.Fatalf("seed %d step %d: FlushPage: %v", seed, step, err)
				}
			case op == 10:
				if rng.Intn(8) == 0 {
					_ = p.DropAll() // refused while a page is pinned
				} else {
					_ = p.DropRange(addr(), 1+rng.Intn(maxRun)) // likewise
				}
			case op == 11:
				_ = p.Relocate(addr(), addr()) // non-resident source or resident target is refused
			}
			what := fmt.Sprintf("seed %d (%d frames, run %d) step %d", seed, frames, maxRun, step)
			if err := p.checkAge(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkScan(t, p, maxRun, what)
		}
	}
}

// TestVictimCounters pins what the metrics registry learns about victim
// selection: a clean pool finds its victim in one step without tier 2, and
// a pool of dirty pages walks every frame and falls back.
func TestVictimCounters(t *testing.T) {
	const frames = 8
	p, d := newPoolCfg(t, Config{Frames: frames, MaxRun: 2})
	miss := func(pg disk.PageID, dirty bool) {
		t.Helper()
		h, err := p.FixPage(disk.Addr{Page: pg})
		if err != nil {
			t.Fatal(err)
		}
		h.Unfix(dirty)
	}
	for pg := disk.PageID(0); pg < frames; pg++ {
		miss(pg, false)
	}
	m := obs.NewMetrics()
	d.Tracer().Attach(m)
	miss(100, false)
	if s, f := m.Counter("buffer.victim.steps"), m.Counter("buffer.victim.fallbacks"); s != 1 || f != 0 {
		t.Fatalf("clean pool: %d steps, %d fallbacks, want 1 and 0", s, f)
	}
	for pg := disk.PageID(200); pg < 200+frames; pg++ {
		miss(pg, true)
	}
	steps := m.Counter("buffer.victim.steps")
	miss(300, false)
	if s, f := m.Counter("buffer.victim.steps")-steps, m.Counter("buffer.victim.fallbacks"); s != frames || f != 1 {
		t.Fatalf("dirty pool: %d steps, %d fallbacks, want %d and 1", s, f, frames)
	}
}

// BenchmarkScanWindow measures one victim search on a hand-built pool.
// "runs" is a clean pool whose frames were last used four adjacent frames
// at a time, in random order, as FixRun installs them: tier 1 answers from
// the cold end of the age list and the cost must not grow with the pool.
// "scattered" is a clean pool whose frames were each used on their own, in
// random order: a single page is still one step, but a run has to wait for
// adjacent frames to turn up in the walk (about frames^(1-1/npages) steps).
// "dirty" is the worst case, every frame dirty: the search walks the whole
// list and then runs tier 2.
func BenchmarkScanWindow(b *testing.B) {
	for _, frames := range []int{12, 256, 4096, 65536} {
		for _, state := range []string{"runs", "scattered", "dirty"} {
			for _, npages := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("frames=%d/%s/npages=%d", frames, state, npages), func(b *testing.B) {
					p, _ := newPoolCfg(b, Config{Frames: frames, MaxRun: 4})
					rng := rand.New(rand.NewSource(1))
					group := 1
					if state == "runs" {
						group = 4
					}
					uses := rng.Perm((frames + group - 1) / group)
					for i := range p.frames {
						p.frames[i] = frame{addr: disk.Addr{Page: disk.PageID(i)}, valid: true,
							dirty: state == "dirty", lastUse: int64(uses[i/group] + 1)}
					}
					relinkAge(p, rng)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						scanSink, _ = p.scanWindow(npages)
					}
				})
			}
		}
	}
}

var scanSink int
