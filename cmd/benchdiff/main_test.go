package main

import "testing"

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	base := map[string]float64{
		"experiment fig5 wall_ms":  100,
		"experiment fig7 wall_ms":  200,
		"experiment tiny wall_ms":  0.5, // below the noise floor
		"micro append ns/op":       5e7, // 50 ms-equivalent
		"micro mix ns/op":          1e6, // 1 ms-equivalent: below floor
		"case file-seq-read ns/op": 2e7, // 20 ms-equivalent
		"gone wall_ms":             50,  // absent from cur
	}
	cur := map[string]float64{
		"experiment fig5 wall_ms":  180, // +80%: regression
		"experiment fig7 wall_ms":  210, // +5%: fine
		"experiment tiny wall_ms":  50,  // huge ratio but noise-floored
		"micro append ns/op":       9e7, // +80%: regression
		"micro mix ns/op":          9e6, // floored
		"case file-seq-read ns/op": 2e7,
		"new wall_ms":              999, // absent from base
	}
	regs := compare(base, cur, threshold, floorMs, floorUs)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions %v, want 2", len(regs), regs)
	}
	if regs[0].name != "experiment fig5 wall_ms" || regs[1].name != "micro append ns/op" {
		t.Fatalf("wrong regressions: %v", regs)
	}
	if regs[0].ratio < 1.79 || regs[0].ratio > 1.81 {
		t.Fatalf("fig5 ratio %.2f, want 1.80", regs[0].ratio)
	}
}

// TestCompareGatesOnP99 pins the percentile-aware gate: a p99 wall-clock
// regression is flagged even when the phase mean barely moves, and p99
// metrics use their own µs noise floor instead of the ms wall floor.
func TestCompareGatesOnP99(t *testing.T) {
	base := map[string]float64{
		"experiment fig7 wall_ms": 200,
		"experiment fig7 p99_us":  500,
		"experiment fig9 p99_us":  400,
		"experiment tiny p99_us":  50, // below the 100 µs p99 floor
	}
	cur := map[string]float64{
		"experiment fig7 wall_ms": 205,  // +2.5%: mean looks fine…
		"experiment fig7 p99_us":  2000, // …but the tail blew up 4x
		"experiment fig9 p99_us":  440,  // +10%: under threshold
		"experiment tiny p99_us":  5000, // huge ratio but sub-noise baseline
	}
	regs := compare(base, cur, threshold, floorMs, floorUs)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %v, want 1", len(regs), regs)
	}
	if regs[0].name != "experiment fig7 p99_us" || regs[0].ratio != 4 {
		t.Fatalf("wrong regression: %+v", regs[0])
	}
	// The µs floor must not inherit the wall-ms floor: with floorUs = 10 the
	// tiny experiment's 100x jump becomes a real finding.
	regs = compare(base, cur, threshold, floorMs, 10)
	if len(regs) != 2 {
		t.Fatalf("lowered p99 floor: got %d regressions %v, want 2", len(regs), regs)
	}
}

// TestCompareThresholdBoundary pins the exact gate: a regression requires
// strictly more than base*(1+threshold).
func TestCompareThresholdBoundary(t *testing.T) {
	base := map[string]float64{"experiment fig5 p99_us": 1000}
	at := map[string]float64{"experiment fig5 p99_us": 1200}
	if regs := compare(base, at, threshold, floorMs, floorUs); len(regs) != 0 {
		t.Fatalf("exactly-at-threshold flagged: %v", regs)
	}
	over := map[string]float64{"experiment fig5 p99_us": 1201}
	if regs := compare(base, over, threshold, floorMs, floorUs); len(regs) != 1 {
		t.Fatalf("just-over-threshold missed: %v", regs)
	}
}

// TestCompareSimGatesExactly pins the deterministic gate: sim metrics are
// flagged on any drift in either direction with no noise floor, stay out
// of the wall-clock comparison, and an exact match passes.
func TestCompareSimGatesExactly(t *testing.T) {
	base := map[string]float64{
		"experiment fig5 sim_ms":  1000,
		"experiment fig7 sim_ms":  0.25, // far below any wall floor: still gated
		"total sim_ms":            5000,
		"experiment fig5 wall_ms": 100,
	}
	same := map[string]float64{
		"experiment fig5 sim_ms":  1000,
		"experiment fig7 sim_ms":  0.25,
		"total sim_ms":            5000,
		"experiment fig5 wall_ms": 500, // wall regression is not sim drift
	}
	if regs := compareSim(base, same, simTol); len(regs) != 0 {
		t.Fatalf("exact match flagged: %v", regs)
	}
	if regs := compare(base, same, threshold, floorMs, floorUs); len(regs) != 1 || regs[0].name != "experiment fig5 wall_ms" {
		t.Fatalf("wall compare mishandled sim metrics: %v", regs)
	}
	drift := map[string]float64{
		"experiment fig5 sim_ms": 1000.5, // +0.05%: slower
		"experiment fig7 sim_ms": 0.24,   // -4%: faster counts too
		"total sim_ms":           5000,
	}
	regs := compareSim(base, drift, simTol)
	if len(regs) != 2 {
		t.Fatalf("got %d sim drifts %v, want 2", len(regs), regs)
	}
	if regs[0].name != "experiment fig5 sim_ms" || regs[1].name != "experiment fig7 sim_ms" {
		t.Fatalf("wrong sim drifts: %v", regs)
	}
	// A tolerance absorbs drift up to its bound, both directions.
	if regs := compareSim(base, drift, 0.05); len(regs) != 0 {
		t.Fatalf("5%% tolerance still flagged: %v", regs)
	}
}

func TestMetricsFlattensBothSchemas(t *testing.T) {
	r := &report{
		Prepass:     &phase{Name: "prepass", WallMs: 3},
		Experiments: []phase{{Name: "fig5", WallMs: 7, SimMs: 40, OpWallP99Us: 450}, {Name: "table1", WallMs: 2}},
		Micro:       []micro{{Name: "append", NsPerOp: 11}},
		TotalSimMs:  90,
		TotalWallMs: 10,
		Cases:       []volCase{{Name: "mem-seq-read", NsPerOp: 13}},
	}
	m := metrics(r)
	want := map[string]float64{
		"prepass wall_ms":           3,
		"experiment fig5 wall_ms":   7,
		"experiment fig5 sim_ms":    40,
		"experiment fig5 p99_us":    450,
		"experiment table1 wall_ms": 2,
		"micro append ns/op":        11,
		"total sim_ms":              90,
		"total wall_ms":             10,
		"case mem-seq-read ns/op":   13,
	}
	if len(m) != len(want) {
		t.Fatalf("got %d metrics %v, want %d", len(m), m, len(want))
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("metric %q = %v, want %v", k, m[k], v)
		}
	}
}
