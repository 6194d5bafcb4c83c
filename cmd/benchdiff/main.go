// Command benchdiff compares two benchmark reports produced by lobbench
// (-benchjson or -volbenchjson) and reports wall-clock regressions. It is
// the CI guard around the committed BENCH_harness.json and
// BENCH_volume.json baselines. The comparison is percentile-aware: besides
// phase means it gates on each experiment's p99 wall-clock operation
// latency, the number tail-latency SLOs are judged by. A fresh run that is
// more than 20% slower on any comparable metric prints a warning per
// regression — in GitHub Actions ::warning:: form with -github, so it
// annotates the run — but exits 0, because shared CI runners are too noisy
// for a hard gate on means; -enforce-p99 hard-gates the p99 wall-clock
// latency metrics: tail percentiles average out run-to-run scheduler noise
// far better than the phase means, so with two PRs of baselines behind them
// they are gated in CI while the wall means stay warn-only.
//
// Simulated-time metrics (per-experiment and total sim_ms) are different:
// they come from the paper's deterministic cost model under a fixed seed,
// so they carry no runner noise at all. They are compared exactly, in both
// directions, with no floor; -enforce-sim makes any drift fail the build. A
// deliberate cost-model change ships with a regenerated baseline.
//
// Usage:
//
//	benchdiff baseline.json fresh.json
//	benchdiff -enforce-p99 baseline.json fresh.json
//	benchdiff -enforce-sim baseline.json fresh.json
//
// The schemas are recognized by their fields: harness reports contribute
// prepass/experiment wall milliseconds, per-experiment p99 µs and
// micro-benchmark ns/op, and volume reports contribute per-case ns/op.
// Every metric regresses upward. Metrics below 10 ms of wall time (or the
// ns/op equivalent) in the baseline are skipped, as are p99 metrics below
// 100 µs: relative comparison of sub-noise cells produces only false alarms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// The wall-clock gate: a regression is a fresh value more than threshold
// above baseline, on a baseline at or above the noise floor of its family.
// Simulated time tolerates no drift at all.
const (
	threshold = 0.20
	floorMs   = 10  // wall metrics; ns/op metrics use the same time in ns
	floorUs   = 100 // p99 latency metrics
	simTol    = 0
)

// phase and micro mirror lobbench's benchjson schema; volCase mirrors the
// volbenchjson one. A report may hold any mix: absent sections decode
// empty.
type phase struct {
	Name        string  `json:"name"`
	WallMs      float64 `json:"wall_ms"`
	SimMs       float64 `json:"sim_ms"`
	OpWallP99Us float64 `json:"op_wall_p99_us"`
}

type micro struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type volCase struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type report struct {
	Prepass     *phase    `json:"prepass"`
	Experiments []phase   `json:"experiments"`
	Micro       []micro   `json:"micro"`
	TotalSimMs  float64   `json:"total_sim_ms"`
	TotalWallMs float64   `json:"total_wall_ms"`
	Cases       []volCase `json:"cases"`
}

// metrics flattens a report into named wall-clock numbers, all in
// milliseconds-equivalent units per metric family (the two sides of a diff
// always carry the same unit, so only the ratio matters).
func metrics(r *report) map[string]float64 {
	out := map[string]float64{}
	if r.Prepass != nil {
		out["prepass wall_ms"] = r.Prepass.WallMs
	}
	for _, p := range r.Experiments {
		out["experiment "+p.Name+" wall_ms"] = p.WallMs
		if p.SimMs > 0 {
			out["experiment "+p.Name+" sim_ms"] = p.SimMs
		}
		if p.OpWallP99Us > 0 {
			out["experiment "+p.Name+" p99_us"] = p.OpWallP99Us
		}
	}
	if r.TotalWallMs > 0 {
		out["total wall_ms"] = r.TotalWallMs
	}
	if r.TotalSimMs > 0 {
		out["total sim_ms"] = r.TotalSimMs
	}
	for _, m := range r.Micro {
		out["micro "+m.Name+" ns/op"] = m.NsPerOp
	}
	for _, c := range r.Cases {
		out["case "+c.Name+" ns/op"] = c.NsPerOp
	}
	return out
}

// regression is one metric whose fresh value exceeds the threshold.
type regression struct {
	name      string
	base, cur float64
	ratio     float64
}

// compare returns the regressions of cur against base. Metrics missing on
// either side are ignored (experiments come and go); baseline values under
// floorMs (for wall metrics) or floorMs*1e6 ns (for ns/op metrics) are
// skipped as noise, and p99 latency metrics — µs-scale, far below any
// sensible wall floor — use their own floorUs.
func compare(base, cur map[string]float64, threshold, floorMs, floorUs float64) []regression {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	var regs []regression
	for _, n := range names {
		b, c := base[n], cur[n]
		if _, ok := cur[n]; !ok || b <= 0 {
			continue
		}
		if isSimMetric(n) {
			continue // simulated time is gated exactly, by compareSim
		}
		floor := floorMs
		switch {
		case isNsMetric(n):
			floor = floorMs * 1e6 // same wall time expressed in ns
		case isUsMetric(n):
			floor = floorUs
		}
		if b < floor {
			continue
		}
		if c > b*(1+threshold) {
			regs = append(regs, regression{name: n, base: b, cur: c, ratio: c / b})
		}
	}
	return regs
}

// compareSim diffs the simulated-time metrics. Simulated milliseconds come
// from the paper's deterministic cost model under a fixed seed: any drift —
// faster or slower, however small — means the engine's I/O behavior
// changed, so there is no noise floor and CI tolerates none (simTol).
// A deliberate cost change is shipped by regenerating the baseline.
func compareSim(base, cur map[string]float64, tolerance float64) []regression {
	names := make([]string, 0, len(base))
	for n := range base {
		if isSimMetric(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var regs []regression
	for _, n := range names {
		b := base[n]
		c, ok := cur[n]
		if !ok || b <= 0 {
			continue
		}
		drift := (c - b) / b
		if drift < 0 {
			drift = -drift
		}
		if drift > tolerance {
			regs = append(regs, regression{name: n, base: b, cur: c, ratio: c / b})
		}
	}
	return regs
}

func isSimMetric(name string) bool {
	return len(name) > 6 && name[len(name)-6:] == "sim_ms"
}

func isNsMetric(name string) bool {
	return len(name) > 5 && name[len(name)-5:] == "ns/op"
}

func isUsMetric(name string) bool {
	return len(name) > 6 && name[len(name)-6:] == "p99_us"
}

func load(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := metrics(&r)
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no comparable metrics (neither harness nor volume schema?)", path)
	}
	return m, nil
}

func main() {
	var (
		github     = flag.Bool("github", false, "emit GitHub Actions ::warning:: annotations")
		enforceP99 = flag.Bool("enforce-p99", false, "exit 1 when a p99 wall-clock latency metric regresses (wall means stay warn-only)")
		enforceSim = flag.Bool("enforce-sim", false, "exit 1 when any sim_ms metric drifts")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-github] [-enforce-p99] [-enforce-sim] baseline.json fresh.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fatalf("%v", err)
	}
	simRegs := compareSim(base, cur, simTol)
	for _, r := range simRegs {
		msg := fmt.Sprintf("%s drifted %.4fx: %.6g -> %.6g (deterministic metric: the I/O cost model behavior changed)",
			r.name, r.ratio, r.base, r.cur)
		switch {
		case *github && *enforceSim:
			fmt.Printf("::error title=sim drift::%s\n", msg)
		case *github:
			fmt.Printf("::warning title=sim drift::%s\n", msg)
		default:
			fmt.Printf("benchdiff: SIM DRIFT %s\n", msg)
		}
	}
	regs := compare(base, cur, threshold, floorMs, floorUs)
	if len(regs) == 0 && len(simRegs) == 0 {
		fmt.Printf("benchdiff: no regressions beyond %.0f%% (%d metrics compared)\n",
			threshold*100, len(base))
		return
	}
	p99Regs := 0
	for _, r := range regs {
		msg := fmt.Sprintf("%s regressed %.1fx: %.3g -> %.3g", r.name, r.ratio, r.base, r.cur)
		hard := *enforceP99 && isUsMetric(r.name)
		if hard {
			p99Regs++
		}
		switch {
		case *github && hard:
			fmt.Printf("::error title=bench regression::%s\n", msg)
		case *github:
			fmt.Printf("::warning title=bench regression::%s\n", msg)
		default:
			fmt.Printf("benchdiff: WARNING %s\n", msg)
		}
	}
	// Wall-clock gating is fail-soft: annotate, never break the build on
	// shared-runner timing noise, except that -enforce-p99 hard-gates the
	// tail percentiles. Simulated time carries no noise, so -enforce-sim
	// turns any drift into a hard failure independently.
	if *enforceSim && len(simRegs) > 0 {
		os.Exit(1)
	}
	if p99Regs > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
