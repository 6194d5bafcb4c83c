package analytic

import (
	"testing"

	"lobstore/internal/eos"
	"lobstore/internal/esm"
	"lobstore/internal/lobtest"
	"lobstore/internal/sim"
	"lobstore/internal/starburst"
	"lobstore/internal/workload"
)

// The analytic package exists to pin the simulator: for deterministic I/O
// patterns, closed-form and simulated costs must agree exactly.

func TestFixedLeafScanFormula(t *testing.T) {
	m := sim.DefaultModel()
	// 10 MB on 4-page leaves: 640 I/Os of 4 pages = 640 * 49 ms = 31.36 s.
	got := FixedLeafScan(m, 10<<20, 4)
	if want := sim.Duration(640*49) * sim.Millisecond; got != want {
		t.Fatalf("FixedLeafScan = %v, want %v", got, want)
	}
}

// TestESMScanMatchesSimulation compares the closed form with a real scan of
// a freshly built ESM object using whole-leaf chunks.
func TestESMScanMatchesSimulation(t *testing.T) {
	const objectBytes = 2 << 20
	for _, leaf := range []int{4, 16} {
		p := lobtest.TestParams()
		st := lobtest.NewStore(t, p)
		o, err := esm.New(st, esm.Config{LeafPages: leaf})
		if err != nil {
			t.Fatal(err)
		}
		chunk := leaf * st.PageSize()
		if err := workload.Build(o, objectBytes, chunk); err != nil {
			t.Fatal(err)
		}
		stats, err := st.MeasureOp(func() error { return workload.Scan(o, chunk) })
		if err != nil {
			t.Fatal(err)
		}
		want := FixedLeafScan(p.Model, objectBytes, leaf)
		if leaf <= st.Pool.MaxRun() {
			// Leaves small enough to be buffered may hit pool residue from
			// the build; allow the simulation to be cheaper, never dearer.
			if stats.Time > want {
				t.Fatalf("leaf=%d: simulated %v exceeds analytic %v", leaf, stats.Time, want)
			}
			continue
		}
		if stats.Time != want {
			t.Fatalf("leaf=%d: simulated %v, analytic %v", leaf, stats.Time, want)
		}
	}
}

// TestSegmentedScanMatchesSimulation validates the doubling-growth scan
// cost against a real EOS object scanned in huge chunks.
func TestSegmentedScanMatchesSimulation(t *testing.T) {
	const objectBytes = 3 << 20
	p := lobtest.TestParams()
	st := lobtest.NewStore(t, p)
	o, err := eos.New(st, eos.Config{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One single append yields the pure doubling pattern.
	if err := workload.Build(o, objectBytes, objectBytes); err != nil {
		t.Fatal(err)
	}
	segs := DoublingSegments(p.Model, objectBytes, st.MaxSegmentPages())
	stats, err := st.MeasureOp(func() error { return workload.Scan(o, objectBytes) })
	if err != nil {
		t.Fatal(err)
	}
	want := SegmentedScan(p.Model, segs)
	if stats.Time != want {
		t.Fatalf("simulated %v, analytic %v (segments %v)", stats.Time, want, segs)
	}
}

func TestDoublingSegmentsShape(t *testing.T) {
	m := sim.DefaultModel()
	segs := DoublingSegments(m, 1830, 8) // the paper's Figure 2 example, bytes scale
	// With 4 KB pages: one page covers it entirely.
	if len(segs) != 1 || segs[0] != 1830 {
		t.Fatalf("segments %v", segs)
	}
	segs = DoublingSegments(m, 64<<10, 4)
	want := []int64{4096, 8192, 16384, 16384, 16384, 4096}
	if len(segs) != len(want) {
		t.Fatalf("segments %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments %v, want %v", segs, want)
		}
	}
}

func TestRandomReadFormula(t *testing.T) {
	m := sim.DefaultModel()
	// §4.1's example: 3 pages in one call cost 45 ms.
	if got := RandomRead(m, 4096, 3*4096); got != 45*sim.Millisecond {
		t.Fatalf("aligned 3-page read = %v", got)
	}
	// A 100-byte read costs one page: 37 ms (Table 2's first column).
	if got := RandomRead(m, 12345, 100); got != 37*sim.Millisecond {
		t.Fatalf("100-byte read = %v", got)
	}
	// Crossing one page boundary adds a page of transfer, not a seek.
	if got := RandomRead(m, 4090, 100); got != 41*sim.Millisecond {
		t.Fatalf("boundary-crossing read = %v", got)
	}
}

// TestStarburstInsertMatchesSimulation: the reorganisation arithmetic must
// reproduce the simulator exactly for page-aligned sizes.
func TestStarburstInsertMatchesSimulation(t *testing.T) {
	const objectBytes = 2 << 20
	const insertBytes = 64 << 10
	p := lobtest.TestParams()
	st := lobtest.NewStore(t, p)
	cfg := starburst.Config{MaxSegmentPages: 64, CopyBufferBytes: 128 << 10}
	o, err := starburst.New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Build(o, objectBytes, objectBytes); err != nil {
		t.Fatal(err)
	}
	segs := DoublingSegments(p.Model, objectBytes, cfg.MaxSegmentPages)
	stats, err := st.MeasureOp(func() error {
		return o.Insert(0, make([]byte, insertBytes))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := StarburstInsertAtStart(p.Model, segs, insertBytes,
		cfg.CopyBufferBytes, cfg.MaxSegmentPages)
	if stats.Time != want {
		t.Fatalf("simulated %v, analytic %v", stats.Time, want)
	}
}

// TestTable3Analytic reproduces the paper's 22.3 s analytically: a 10 MB
// object in one maximal segment copied through a 512 KB buffer.
func TestTable3Analytic(t *testing.T) {
	m := sim.DefaultModel()
	segs := []int64{10 << 20} // one reorganised maximal segment
	got := StarburstInsertAtStart(m, segs, 4096, starburst.DefaultCopyBuffer, 8192)
	// Expect ≈ 2×10 MB transfer (20.5 s) + 2×20 chunk seeks + descriptor.
	if got < 21*sim.Second || got > 23*sim.Second {
		t.Fatalf("analytic full-copy update = %v, expected ≈22.3 s", got)
	}
}
