// Command lobtrace summarizes and compares the JSONL event traces written
// by lobbench -trace, lobctl -trace, or lobstore's EnableTrace.
//
// Usage:
//
//	lobtrace summary trace.jsonl           # aggregated metrics report
//	lobtrace summary -csv trace.jsonl      # same, as CSV rows
//	lobtrace diff a.jsonl b.jsonl          # counter deltas between traces
//	lobtrace timeline trace.jsonl          # per-window latency trajectory
//	lobtrace timeline a.jsonl b.jsonl      # window-by-window comparison
//
// A trace holds one JSON object per line with short keys (t: simulated
// microseconds, k: event kind, op: operation, sp: span, a/p/n: area, start
// page and page count, x1/x2: kind-specific values, err: error text).
// Summary replays the events through the same aggregating registry the
// library uses, so its report matches what -metrics would have printed
// live. Diff aggregates both traces and prints the counters that changed —
// a quick way to see what a tuning knob did to the I/O mix. Timeline
// replays a trace into the flight recorder and prints one row per window
// of simulated time — latency percentiles come from the simulated clock
// only, because traces deliberately omit wall-clock durations (they would
// break byte-identical traces across runs). With two files the windows are
// aligned by index, "-" marking windows present in only one run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lobstore/internal/obs"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "summary":
		if err := summary(args[1:]); err != nil {
			fatalf("summary: %v", err)
		}
	case "diff":
		if err := diff(args[1:]); err != nil {
			fatalf("diff: %v", err)
		}
	case "timeline":
		if err := timeline(args[1:]); err != nil {
			fatalf("timeline: %v", err)
		}
	default:
		fatalf("unknown command %q (summary, diff, timeline)", args[0])
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  lobtrace summary [-csv] trace.jsonl
  lobtrace diff a.jsonl b.jsonl
  lobtrace timeline [-window D] trace.jsonl [b.jsonl]
`)
}

// load replays one trace file into a fresh metrics registry.
func load(path string) (*obs.Metrics, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	m := obs.NewMetrics()
	var events int64
	err = obs.ReadJSONL(f, func(e obs.Event) error {
		m.Record(e)
		events++
		return nil
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return m, events, nil
}

func summary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	asCSV := fs.Bool("csv", false, "emit CSV rows instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one trace file")
	}
	m, events, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asCSV {
		return m.WriteCSV(os.Stdout)
	}
	fmt.Printf("%s: %d events\n", fs.Arg(0), events)
	return m.WriteText(os.Stdout)
}

func diff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("want exactly two trace files")
	}
	ma, _, err := load(args[0])
	if err != nil {
		return err
	}
	mb, _, err := load(args[1])
	if err != nil {
		return err
	}
	names := union(ma.CounterNames(), mb.CounterNames())
	fmt.Printf("%-24s %12s %12s %12s\n", "counter", "a", "b", "delta")
	var changed int
	for _, n := range names {
		a, b := ma.Counter(n), mb.Counter(n)
		if a == b {
			continue
		}
		changed++
		fmt.Printf("%-24s %12d %12d %+12d\n", n, a, b, b-a)
	}
	if changed == 0 {
		fmt.Println("no counter differences")
	}
	pairs := [][2]*obs.Histogram{
		{ma.IOSize, mb.IOSize},
		{ma.Seek, mb.Seek},
		{ma.Depth, mb.Depth},
	}
	// Per-op latency histograms are created lazily, so an operation may have
	// a histogram in one trace and none (nil) in the other — e.g. diffing a
	// read-only run against a mixed run. Emit such rows one-sided instead of
	// skipping or misaligning them.
	for _, op := range obs.Ops() {
		a, b := ma.OpLat[op], mb.OpLat[op]
		if a == nil && b == nil {
			continue
		}
		pairs = append(pairs, [2]*obs.Histogram{a, b})
	}
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		if histEmpty(a) && histEmpty(b) {
			continue
		}
		name := ""
		if a != nil {
			name = a.Name
		} else {
			name = b.Name
		}
		fmt.Printf("%-24s mean %s -> %s %s, max %s -> %s\n",
			name, histMean(a), histMean(b), histUnit(a, b), histMax(a), histMax(b))
	}
	return nil
}

// timeline replays one or two traces into a flight recorder and prints one
// row per window of simulated time. Percentiles are simulated-time only:
// traces omit wall-clock span durations by design.
func timeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	window := fs.Duration("window", 10*time.Second, "window width in simulated time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 && fs.NArg() != 2 {
		return fmt.Errorf("want one or two trace files")
	}
	windowUs := window.Microseconds()
	if windowUs < 1 {
		return fmt.Errorf("window %v too small (min 1µs)", *window)
	}
	wa, err := loadTimeline(fs.Arg(0), windowUs)
	if err != nil {
		return err
	}
	if fs.NArg() == 1 {
		fmt.Printf("%s: %d windows of %v simulated time (latencies are simulated µs)\n",
			fs.Arg(0), len(wa), *window)
		fmt.Printf("%8s %12s %8s %8s %7s %8s %8s %8s\n",
			"window", "start_us", "events", "ios", "hit%", "p50", "p95", "p99")
		for _, w := range wa {
			fmt.Printf("%8d %12d %8d %8d %7s %8s %8s %8s\n",
				w.Index, w.StartUs, w.Events, windowIOs(&w), windowHit(&w),
				windowQ(&w, 50), windowQ(&w, 95), windowQ(&w, 99))
		}
		return nil
	}
	wb, err := loadTimeline(fs.Arg(1), windowUs)
	if err != nil {
		return err
	}
	fmt.Printf("a=%s b=%s: windows of %v simulated time (latencies are simulated µs)\n",
		fs.Arg(0), fs.Arg(1), *window)
	fmt.Printf("%8s %10s %10s %10s %10s %10s %10s\n",
		"window", "events a", "events b", "p99 a", "p99 b", "ios a", "ios b")
	for _, pair := range alignWindows(wa, wb) {
		a, b := pair[0], pair[1]
		idx := windowIndex(a, b)
		fmt.Printf("%8d %10s %10s %10s %10s %10s %10s\n",
			idx, windowEvents(a), windowEvents(b),
			windowQPtr(a, 99), windowQPtr(b, 99), windowIOsPtr(a), windowIOsPtr(b))
	}
	return nil
}

// loadTimeline replays one trace into a fresh flight recorder and returns
// its sealed windows. The ring is sized far beyond any realistic trace so
// offline replay never drops history.
func loadTimeline(path string, windowUs int64) ([]obs.WindowStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ts := obs.NewTimeSeries(windowUs, 1<<20)
	err = obs.ReadJSONL(f, func(e obs.Event) error {
		ts.Record(e)
		return nil
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	_ = ts.Close()
	return ts.Windows(), nil
}

// alignWindows pairs two window sequences by window index. Idle windows are
// never materialized, so either side of a pair may be nil — the renderer
// shows those as "-".
func alignWindows(a, b []obs.WindowStats) [][2]*obs.WindowStats {
	var out [][2]*obs.WindowStats
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i].Index < b[j].Index):
			out = append(out, [2]*obs.WindowStats{&a[i], nil})
			i++
		case i == len(a) || b[j].Index < a[i].Index:
			out = append(out, [2]*obs.WindowStats{nil, &b[j]})
			j++
		default:
			out = append(out, [2]*obs.WindowStats{&a[i], &b[j]})
			i, j = i+1, j+1
		}
	}
	return out
}

func windowIndex(a, b *obs.WindowStats) int64 {
	if a != nil {
		return a.Index
	}
	return b.Index
}

// windowIOs sums the I/O call counters of one window.
func windowIOs(w *obs.WindowStats) int64 {
	return w.Counters["io.read.calls"] + w.Counters["io.write.calls"]
}

// windowHit formats the buffer hit rate, "-" when no lookups happened.
func windowHit(w *obs.WindowStats) string {
	if w.Counters["buf.hits"]+w.Counters["buf.misses"] == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*w.HitRate)
}

// windowQ formats the window's whole-window simulated percentile, "-" when
// the window saw no spans.
func windowQ(w *obs.WindowStats, pct int) string {
	if w.SimAll == nil {
		return "-"
	}
	switch pct {
	case 50:
		return fmt.Sprintf("%d", w.SimAll.P50Us)
	case 95:
		return fmt.Sprintf("%d", w.SimAll.P95Us)
	default:
		return fmt.Sprintf("%d", w.SimAll.P99Us)
	}
}

func windowEvents(w *obs.WindowStats) string {
	if w == nil {
		return "-"
	}
	return fmt.Sprintf("%d", w.Events)
}

func windowQPtr(w *obs.WindowStats, pct int) string {
	if w == nil {
		return "-"
	}
	return windowQ(w, pct)
}

func windowIOsPtr(w *obs.WindowStats) string {
	if w == nil {
		return "-"
	}
	return fmt.Sprintf("%d", windowIOs(w))
}

// histEmpty reports whether h is absent or has no samples.
func histEmpty(h *obs.Histogram) bool { return h == nil || h.N == 0 }

// histMean formats a histogram's mean, "-" when the histogram is absent.
func histMean(h *obs.Histogram) string {
	if h == nil {
		return "-"
	}
	return fmt.Sprintf("%.1f", h.Mean())
}

// histMax formats a histogram's max, "-" when the histogram is absent.
func histMax(h *obs.Histogram) string {
	if h == nil {
		return "-"
	}
	return fmt.Sprintf("%d", h.Max)
}

// histUnit returns the unit of whichever side exists.
func histUnit(a, b *obs.Histogram) string {
	if a != nil {
		return a.Unit
	}
	return b.Unit
}

// union merges two sorted string slices, dropping duplicates.
func union(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lobtrace: "+format+"\n", args...)
	os.Exit(1)
}
