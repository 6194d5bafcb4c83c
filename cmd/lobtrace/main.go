// Command lobtrace summarizes and compares the JSONL event traces written
// by lobbench -trace, lobctl -trace, or lobstore's EnableTrace.
//
// Usage:
//
//	lobtrace summary trace.jsonl           # aggregated metrics report
//	lobtrace summary -csv trace.jsonl      # same, as CSV rows
//	lobtrace diff a.jsonl b.jsonl          # counter deltas between traces
//
// A trace holds one JSON object per line with short keys (t: simulated
// microseconds, k: event kind, op: operation, sp: span, a/p/n: area, start
// page and page count, x1/x2: kind-specific values, err: error text).
// Summary replays the events through the same aggregating registry the
// library uses, so its report matches what -metrics would have printed
// live. Diff aggregates both traces and prints the counters that changed —
// a quick way to see what a tuning knob did to the I/O mix.
package main

import (
	"flag"
	"fmt"
	"os"

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
	default:
		fatalf("unknown command %q (summary, diff)", args[0])
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  lobtrace summary [-csv] trace.jsonl
  lobtrace diff a.jsonl b.jsonl
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
