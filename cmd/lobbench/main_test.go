package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lobstore/internal/harness"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"100":  100,
		"4K":   4096,
		"4k":   4096,
		"10M":  10 << 20,
		"2G":   2 << 30,
		"512K": 512 << 10,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil {
			t.Errorf("parseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "-5", "0", "1.5M", "K"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) succeeded", bad)
		}
	}
}

// TestSimMsMatchesBaseline is the exact gate on the simulator's cost model:
// run at quick scale on the sequential path (-parallel 1), every experiment
// must accumulate exactly the simulated milliseconds that the committed
// BENCH_harness.json records for it. Simulated time is a pure function of
// the seed and the engines' I/O, so any drift means the I/O changed. A
// deliberate change regenerates the baseline in the same commit with
// `lobbench -exp all -quick -parallel 1 -benchjson BENCH_harness.json`.
func TestSimMsMatchesBaseline(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCH_harness.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base benchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		t.Fatal(err)
	}
	cfg := harness.QuickConfig()
	if c := base.Config; !c.Quick || c.Workers != 1 || c.ObjectBytes != cfg.ObjectBytes ||
		c.MixOps != cfg.MixOps || c.Seed != cfg.Seed {
		t.Fatalf("baseline config %+v is not the quick, sequential run", c)
	}

	r := harness.NewRunner(cfg)
	tracker := &benchTracker{}
	r.Observe = tracker.track
	names := harness.Names()
	if len(base.Experiments) != len(names) {
		t.Fatalf("baseline has %d experiments, the harness %d", len(base.Experiments), len(names))
	}
	for i, name := range names {
		e, _ := harness.Lookup(name)
		got, err := tracker.measurePhase(name, func() error {
			_, err := e.Run(r)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := base.Experiments[i]; want.Name != name || got.SimMs != want.SimMs {
			t.Errorf("%s: sim_ms %.0f, baseline %s %.0f", name, got.SimMs, want.Name, want.SimMs)
		}
	}
	if total := tracker.simSince(0); total != base.TotalSimMs {
		t.Errorf("total sim_ms %.0f, baseline %.0f", total, base.TotalSimMs)
	}
}
